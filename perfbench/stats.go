package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method, extrapolating for tiny samples), so spreads
// computed here match the ones computed from the results in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile of xs and
// whether at least ten samples lie beyond it — the condition under
// which a tail percentile is reported at all.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s)-rank >= 10
}

// lateness measures an open-loop generator: how long after each
// request's due time it was actually sent. due and sent are offsets
// from the same origin; negative lateness (sent early) counts as 0.
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		out[i] = max(0, ms(sent[i]-due[i]))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
