package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its input in place")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (supported %v), want 990 with exactly 10 beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it; must be unsupported")
	}
	if v, ok := percentile(xs[:500], 90); v != 450 || !ok {
		t.Errorf("p90 of 1..500 = %v (supported %v), want 450", v, ok)
	}
	if _, ok := percentile(xs[:15], 50); ok {
		t.Error("the median of 15 samples has only 7 beyond it; must be unsupported")
	}
}

func TestLateness(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	sent := []time.Duration{time.Millisecond, 9 * time.Millisecond, 25 * time.Millisecond}
	got := lateness(due, sent)
	want := []float64{1, 0, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMeans(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", g)
	}
	if m := mean([]float64{1, 4, 16}); m != 7 {
		t.Errorf("mean = %v, want 7", m)
	}
}
