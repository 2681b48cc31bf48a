// Command perfbench is Herald's end-to-end benchmark. It runs one of
// three workloads from a seed, checks the program's outputs, and
// prints the metrics as one JSON object on the last line of standard
// output:
//
//	go run . -workload design-sweep -seed 1 -seconds 30 -trace 0
//
// With -trace 1 it runs the workload's job untraced and with spans
// recorded around every call into a layer, then peels the
// workload's inputs through the layers one at a time and prints the
// per-layer metrics instead. See README.md for the workloads and
// metrics, and run.sh for the build that precedes a run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output: whether every check passed, how
// many operations were attempted and failed, and the metrics that
// BENCHMARK.json names.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its
// outcomes.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	heraldd  string  // path of the heraldd binary (serve-steady)
	tr       *tracer // nil when spans are off

	attempted, failed int64
	problems          []string

	metrics map[string]metric
	report  map[string]any // extra detail printed before the result
}

// check counts one operation and records it as failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *run) note(key string, v any) { r.report[key] = v }

// workloads maps each workload name to its functions. They return an
// error only when they cannot measure at all; failed correctness
// checks go through run.check.
var workloads = map[string]struct {
	measure func(*run) error // end-to-end metrics, untraced
	layers  func(*run) error // per-layer metrics, traced
	ready   func(seed int64) error
}{
	"design-sweep":    {measureDesign, layersDesign, readyDesign},
	"serve-steady":    {measureServe, layersServe, nil},
	"replay-overload": {measureReplay, layersReplay, readyReplay},
}

func main() {
	name := flag.String("workload", "", "workload: design-sweep, serve-steady or replay-overload")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	heraldd := flag.String("heraldd", filepath.Join(".bench_build", "heraldd"), "heraldd binary (serve-steady)")
	spans := flag.String("spans", "", "span output file for -trace 1 (default .bench_build/spans/<workload>-<seed>.jsonl)")
	ready := flag.Bool("ready", false, "internal: perform the workload's in-process setup, print \"ready\" and exit")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown -workload %q", *name)
	}
	if *ready {
		if w.ready == nil {
			fatalf("%s has no in-process setup", *name)
		}
		if err := w.ready(*seed); err != nil {
			fatalf("setup: %v", err)
		}
		fmt.Println("ready")
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fatalf("-seconds must be >= 1 and -trace 0 or 1")
	}
	r := &run{
		workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, heraldd: *heraldd,
		metrics: map[string]metric{}, report: map[string]any{},
	}
	r.note("workload", *name)
	r.note("seed", *seed)
	r.note("gomaxprocs", runtime.GOMAXPROCS(0))

	var err error
	if *traceFlag == 1 {
		err = w.layers(r)
		if err == nil && r.tr != nil {
			path := *spans
			if path == "" {
				path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
			}
			err = r.tr.write(path)
		}
	} else {
		err = w.measure(r)
		if err == nil {
			r.set("rss_peak_mb", r.rssPeakMB(), "MB")
		}
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	r.note("fail_pct", 100*float64(r.failed)/float64(max(r.attempted, 1)))
	if len(r.problems) > 0 {
		r.note("problems", r.problems)
	}
	rep, _ := json.Marshal(r.report) // plain values only; cannot fail
	fmt.Printf("report %s\n", rep)
	out, _ := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	fmt.Println(string(out))
	if r.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed:\n  %s\n", r.failed, r.attempted, strings.Join(r.problems, "\n  "))
		os.Exit(1)
	}
}

// rssPeakMB is the peak resident memory of the process that did the
// work: a child's own peak when the workload recorded one (heraldd),
// else this process's.
func (r *run) rssPeakMB() float64 {
	if v, ok := r.report["child_rss_peak_mb"].(float64); ok {
		return v
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
