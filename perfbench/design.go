package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// designJob is one design-time query: the best HDA for one workload
// on one accelerator class.
type designJob struct {
	space dse.Space
	w     *workload.Workload
}

func (j designJob) String() string { return j.space.Class.Name + "/" + j.w.Name }

// designSuite is the paper's design-time evaluation (AR/VR-A, AR/VR-B
// and MLPerf on the edge and cloud classes of Table IV, all three
// dataflow styles, default 16/8 granularity). The seed only shuffles
// the order the jobs run in, which changes which job pays each cost
// model miss but not any result.
func designSuite(seed int64) []designJob {
	var jobs []designJob
	for _, c := range []accel.Class{accel.Edge, accel.Cloud} {
		for _, w := range []*workload.Workload{workload.ARVRA(), workload.ARVRB(), workload.MLPerf(1)} {
			jobs = append(jobs, designJob{dse.Space{Class: c, Styles: dataflow.AllStyles()}, w})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs
}

func newCache() *maestro.Cache { return maestro.NewCache(energy.Default28nm()) }

// readyDesign is the design-sweep setup: a fresh cost cache and the
// validated suite.
func readyDesign(seed int64) error {
	newCache() // what a design run starts from; building it is the set-up
	for _, j := range designSuite(seed) {
		if err := j.space.Validate(); err != nil {
			return fmt.Errorf("%s: %w", j, err)
		}
	}
	return nil
}

// searchSuite runs every job's exhaustive search on cache and returns
// the results in job order.
func searchSuite(r *run, cache *maestro.Cache, jobs []designJob, opts dse.Options, parent int64) ([]*dse.Result, error) {
	out := make([]*dse.Result, len(jobs))
	for i, j := range jobs {
		_, end := r.tr.open("dse.Search", parent, int64(i))
		res, err := dse.Search(cache, j.space, j.w, opts)
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j, err)
		}
		out[i] = res
	}
	return out, nil
}

// sameBest reports whether two searches chose the same design.
func sameBest(a, b dse.Point) bool {
	return a.HDA.SamePartition(b.HDA) && a.EDP == b.EDP
}

// pointStride spreads the design-point timings over the run: after
// each of the first pointStride pass pairs, every pointStride-th point
// is re-scheduled, starting one further along each time. Every point
// is timed exactly once, so each run times the same set, and a slow
// stretch of a shared machine touches a fraction of the samples
// instead of all of them.
const pointStride = 4

// designPasses runs cold/warm suite pairs until 65% of the budget is
// spent (at least pointStride pairs; the checks take the rest) and checks
// every pass chose the same designs. Each cold pass starts from a
// fresh cost cache; the warm pass repeats the suite on the cache the
// cold pass filled, and a share of its design points is then
// re-scheduled and timed. It returns the per-pass wall times, the
// point timings per job, the cost-cache size after a cold pass, and
// the last warm pass's results with the cache it ran on.
func designPasses(r *run, jobs []designJob) (cold, warm []float64, points [][]float64, entries int, results []*dse.Result, cache *maestro.Cache, err error) {
	var ref []dse.Point // the first pass's choices; only Best, so the first design cloud can be freed
	points = make([][]float64, len(jobs))
	deadline := time.Now().Add(r.budget * 65 / 100)
	for pass := 0; pass < pointStride || time.Now().Before(deadline); pass++ {
		cache = newCache()
		for k, sample := range []*[]float64{&cold, &warm} {
			results = nil
			runtime.GC() // start each pass from a clean heap, not the last pass's garbage
			start := time.Now()
			results, err = searchSuite(r, cache, jobs, dse.DefaultOptions(), 0)
			*sample = append(*sample, time.Since(start).Seconds())
			if err != nil {
				return nil, nil, nil, 0, nil, nil, err
			}
			if k == 0 {
				entries = cache.Len()
			}
			if ref == nil {
				for _, res := range results {
					ref = append(ref, res.Best)
				}
				continue
			}
			for i := range jobs {
				r.check(sameBest(results[i].Best, ref[i]), "%s: pass %d chose %v, first pass %v", jobs[i], pass, results[i].Best.HDA, ref[i].HDA)
			}
		}
		if pass < pointStride {
			if err := evaluatePoints(r, cache, jobs, results, pass, points); err != nil {
				return nil, nil, nil, 0, nil, nil, err
			}
		}
	}
	return cold, warm, points, entries, results, cache, nil
}

// checkPruned checks that a pruned best-only search returns the same
// Best as the exhaustive one for every job.
func checkPruned(r *run, cache *maestro.Cache, jobs []designJob, exhaustive []*dse.Result) (points, pruned int, err error) {
	opts := dse.DefaultOptions()
	opts.BestOnly, opts.Prune = true, true
	res, err := searchSuite(r, cache, jobs, opts, 0)
	if err != nil {
		return 0, 0, err
	}
	for i := range jobs {
		r.check(sameBest(res[i].Best, exhaustive[i].Best), "%s: pruned search chose %v, exhaustive %v", jobs[i], res[i].Best.HDA, exhaustive[i].Best.HDA)
		points += res[i].Explored
		pruned += res[i].Pruned
	}
	return points, pruned, nil
}

// evaluatePoints re-schedules every pointStride-th design point of
// results, from offset, on a scheduler over the warm cache, appends
// each timing to its job's samples, and checks each point reproduces
// the EDP the search reported for it.
func evaluatePoints(r *run, cache *maestro.Cache, jobs []designJob, results []*dse.Result, offset int, samples [][]float64) error {
	s, err := sched.New(cache, dse.DefaultOptions().Sched)
	if err != nil {
		return err
	}
	var mismatches int
	for i, j := range jobs {
		pts := results[i].Points
		for k := offset; k < len(pts); k += pointStride {
			start := time.Now()
			sch, err := s.Schedule(pts[k].HDA, j.w)
			samples[i] = append(samples[i], ms(time.Since(start)))
			if err != nil {
				return fmt.Errorf("%s on %v: %w", j, pts[k].HDA, err)
			}
			if sch.EDP(1) != pts[k].EDP { // the search reports EDP at 1 GHz
				mismatches++
			}
			s.Recycle(sch)
		}
	}
	r.check(mismatches == 0, "%d design points re-scheduled to a different EDP", mismatches)
	return nil
}

func measureDesign(r *run) error {
	setup, err := childSetups(r, 21)
	if err != nil {
		return err
	}
	jobs := designSuite(r.seed)
	cold, warm, lat, entries, results, cache, err := designPasses(r, jobs)
	if err != nil {
		return err
	}
	points, pruned, err := checkPruned(r, cache, jobs, results)
	if err != nil {
		return err
	}
	// The jobs' points differ in cost by workload size, so the pooled
	// distribution has a cluster per job and its median falls between
	// clusters; per-job percentiles, combined by geometric mean, do not
	// jump between them.
	var p50s, p90s []float64
	var n int
	for i, l := range lat {
		p90, ok := percentile(l, 90)
		if !ok {
			return fmt.Errorf("%s: %d design points are too few for a p90", jobs[i], len(l))
		}
		p50s, p90s, n = append(p50s, median(l)), append(p90s, p90), n+len(l)
	}
	r.set("p50_ms", geomean(p50s), "ms")
	r.set("p90_ms", geomean(p90s), "ms")
	r.note("design_points", n)

	// Aggregate in suite order, not the seed's run order, so the
	// simulated figures are bit-identical across seeds.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return jobs[order[a]].String() < jobs[order[b]].String() })
	var edp, latCycles []float64
	best := map[string]string{}
	for _, i := range order {
		edp = append(edp, results[i].Best.EDP)
		latCycles = append(latCycles, results[i].Best.LatencySec*1e9) // cycles at 1 GHz
		best[jobs[i].String()] = results[i].Best.HDA.String()
	}
	r.set("setup_s", median(setup), "s")
	r.set("cold_s", median(cold), "s")
	r.set("warm_s", median(warm), "s")
	r.set("sim_mcycles", geomean(latCycles)/1e6, "Mcycle")
	r.note("dse_cold_s", spread(cold))
	r.note("dse_warm_s", spread(warm))
	r.note("dse_best_edp", geomean(edp))
	r.note("best_hda", best)
	r.note("maestro_entries_after_cold_pass", entries)
	r.note("pruned_search_points_explored", points)
	r.note("pruned_search_points_pruned", pruned)
	return nil
}

// spread summarizes repeated timings: count, median and quartiles.
func spread(xs []float64) map[string]any {
	q1, q3 := quartiles(xs)
	return map[string]any{"n": len(xs), "median": median(xs), "q1": q1, "q3": q3}
}

// childSetups times k fresh benchmark processes from exec until they
// have done the workload's setup and exited.
func childSetups(r *run, k int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for range k {
		start := time.Now()
		b, err := exec.Command(self, "-workload", r.workload, "-seed", strconv.FormatInt(r.seed, 10), "-ready").Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
		if string(b) != "ready\n" {
			return nil, fmt.Errorf("setup child printed %q", b)
		}
	}
	return out, nil
}
