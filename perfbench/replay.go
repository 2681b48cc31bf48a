package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// Replay-overload sizing. The flash crowd's arrival horizon is set so
// the offered work is about 3.5x what the two-replica 512/512 edge
// fleet completes in that horizon: overloadRequests requests of the
// scenario's default models need roughly 3.5 * overloadHorizon cycles
// on the fleet.
const (
	overloadRequests = 16000
	overloadHorizon  = 3_700_000_000
	replayWindow     = 16 // submissions per quiesce window; the elastic controller steps at each boundary
	maxSegments      = 4
)

// replaySetup is everything a replay needs before it starts: the
// trace, the fleet substrate, the engine-level fusion plans and the
// warm sweeper the elastic controller probes.
type replaySetup struct {
	cache *maestro.Cache
	trace *capture.Trace
	hdas  []*accel.HDA
	plans map[string]dse.SegmentPlan
	sw    *dse.Sweeper
}

// overloadSpec is the seeded flash-crowd scenario. The steady control
// tenant probes every horizon/512 cycles, so its latency percentiles
// rest on hundreds of samples.
func overloadSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Name: "perfbench-flash", Kind: scenario.Flash, Seed: seed,
		Requests: overloadRequests, HorizonCycles: overloadHorizon,
		SteadyPeriodCycles: overloadHorizon / 512,
	}
}

func newOverloadSetup(r *run, seed int64) (*replaySetup, error) {
	_, end := r.tr.open("scenario.Generate", 0, -1)
	entries, err := scenario.Generate(overloadSpec(seed))
	end()
	if err != nil {
		return nil, err
	}
	hda, err := accel.New("edge-512-512", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		return nil, err
	}
	return newReplaySetup(r, newCache(), entries, hda, dse.Space{
		Class: accel.Edge, Styles: []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao}, PEUnits: 4, BWUnits: 2,
	})
}

// newReplaySetup prepares entries for replay on two replicas of hda:
// the fusion plan of every model that splits, and a sweeper over space.
func newReplaySetup(r *run, cache *maestro.Cache, entries []capture.Entry, hda *accel.HDA, space dse.Space) (*replaySetup, error) {
	s := &replaySetup{
		cache: cache,
		trace: &capture.Trace{Note: "perfbench", Entries: entries},
		hdas:  []*accel.HDA{hda, hda},
		plans: map[string]dse.SegmentPlan{},
	}
	names, byName, err := models(entries)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		_, end := r.tr.open("dse.PlanSegments", 0, -1)
		p, err := dse.PlanSegments(s.cache, hda, byName[name], dse.ObjectiveEDP, maxSegments)
		end()
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", name, err)
		}
		if p.NumSegments() > 1 {
			s.plans[name] = p
		}
	}
	opts := dse.DefaultOptions()
	opts.BestOnly, opts.Prune = true, true
	_, end := r.tr.open("dse.NewSweeper", 0, -1)
	s.sw, err = dse.NewSweeper(s.cache, space, opts)
	end()
	return s, err
}

func readyReplay(seed int64) error {
	_, err := newOverloadSetup(&run{}, seed)
	return err
}

// fleetOptions is the replayed fleet: engine-level fusion, the warm
// sweeper, an EWMA mix the elastic controller can track. onAccept,
// when set, observes every accepted submission.
func (s *replaySetup) fleetOptions(onAccept func(serve.Request, string)) fleet.Options {
	o := fleet.DefaultOptions()
	o.Serve.Plans = s.plans
	o.Serve.MaxQueue = 4096
	o.Sweeper = s.sw
	o.MixHalfLife = 64
	o.OnAccept = onAccept
	return o
}

// replayOnce replays the trace with the elastic controller stepping
// at every window boundary. It returns the digest and the wall time of
// each full window, measured between the first accepted submissions
// of consecutive windows.
func (s *replaySetup) replayOnce(r *run) (*replay.Digest, []float64, error) {
	var mu sync.Mutex
	var starts []time.Time
	accepted := 0
	onAccept := func(serve.Request, string) {
		mu.Lock()
		if accepted%replayWindow == 0 {
			starts = append(starts, time.Now())
		}
		accepted++
		mu.Unlock()
	}
	pid, end := r.tr.open("replay.Run", 0, -1)
	d, err := replay.Run(context.Background(), s.cache, s.hdas, s.trace, replay.Options{
		Fleet:   s.fleetOptions(onAccept),
		Window:  replayWindow,
		Elastic: &fleet.ElasticOptions{PEQuantum: 256},
	})
	end()
	if err != nil {
		return nil, nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	windows := make([]float64, 0, len(starts))
	for i := 1; i < len(starts); i++ {
		windows = append(windows, ms(starts[i].Sub(starts[i-1])))
		r.tr.record("replay.window", pid, int64(i-1), starts[i-1], starts[i])
	}
	return d, windows, nil
}

// steadyP99 is the steady control tenant's simulated p99 latency.
func steadyP99(d *replay.Digest) (int64, bool) {
	for _, t := range d.Tenants {
		if t.Tenant == "steady" {
			return t.P99LatencyCycles, true
		}
	}
	return 0, false
}

func measureReplay(r *run) error {
	setup, err := childSetups(r, 5)
	if err != nil {
		return err
	}
	s, err := newOverloadSetup(r, r.seed)
	if err != nil {
		return err
	}
	var walls, windows []float64
	var first string
	var d *replay.Digest
	// Replay at least twice, and again while another replay as long as
	// the first still ends within the budget.
	deadline := time.Now().Add(r.budget)
	for pass := 0; pass < 2 || time.Now().Add(time.Duration(walls[0]*float64(time.Second))).Before(deadline); pass++ {
		runtime.GC()
		start := time.Now()
		var w []float64
		d, w, err = s.replayOnce(r)
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		windows = append(windows, w...)
		hash, err := d.Hash()
		if err != nil {
			return err
		}
		if pass == 0 {
			first = hash
		}
		r.check(hash == first, "replay pass %d digest %s differs from pass 0's %s", pass, hash, first)
		r.check(d.Conservation.Holds, "replay pass %d: conservation violated: %+v", pass, d.Conservation)
		r.check(len(d.Rejects) == 0 && d.Counters.Shed == 0, "replay pass %d refused requests: %v, shed %d", pass, d.Rejects, d.Counters.Shed)
		r.attempted += d.Conservation.Submitted
		r.failed += d.Conservation.Failed
	}
	steady, ok := steadyP99(d)
	r.check(ok, "digest has no steady tenant")
	p90, _ := percentile(windows, 90)
	p99, ok := percentile(windows, 99)
	if !ok {
		return fmt.Errorf("%d windows are too few for a p99 with ten beyond it", len(windows))
	}
	n := float64(len(s.trace.Entries))
	r.set("setup_s", median(setup), "s")
	r.set("cold_s", walls[0], "s")
	r.set("warm_s", median(walls[1:]), "s")
	r.set("p50_ms", median(windows), "ms")
	r.set("p90_ms", p90, "ms")
	r.set("sim_mcycles", float64(d.Counters.MakespanCycles)/1e6, "Mcycle")
	r.note("window_p99_ms", map[string]any{"value": p99, "n": len(windows)})
	r.note("replay_rps", n/median(walls[1:]))
	r.note("replay_passes_s", walls)
	r.note("requests", len(s.trace.Entries))
	r.note("sim_makespan_ms", float64(d.Counters.MakespanCycles)/1e6) // 1 GHz clock
	r.note("sim_steady_p99_ms", float64(steady)/1e6)
	r.note("overload_factor", float64(d.Counters.MakespanCycles)/overloadHorizon)
	r.note("digest", first)
	r.note("counters", d.Counters)
	r.note("elastic_steps", len(d.ElasticDecisions))
	return nil
}
