package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The traced run attributes time to Herald's layers by calling each
// layer's public API from here and timing the calls: no span comes
// from inside the program. Every workload feeds its own inputs
// through the same probes, so each per-layer metric exists on every
// workload; README.md says which end-to-end metric each should move.

// peelSize is how many requests of the workload's stream the peel
// sends through each layer.
const peelSize = 3000

// Request counts at which the history probes sample per-admission
// cost, and how many admissions each sample averages.
const (
	historyWindow = 256
	overloadN     = 4096
)

var historyMarks = []int{1 << 10, 1 << 14, 1 << 16}

// peelInput is what one workload feeds through the layers.
type peelInput struct {
	hda   *accel.HDA      // every replica's substrate
	space dse.Space       // partition space of the sweeper probe
	reqs  []capture.Entry // the workload's stream, with explicit arrivals
	jobs  []designJob     // design queries for the scheduler and DSE probes
	gap   int64           // arrival spacing that keeps one replica of hda under capacity, cycles

	// replayed is the workload's own traced replay, when it has one;
	// otherwise the probes replay reqs.
	replayed *replayRun
}

// replayRun is one timed replay.
type replayRun struct {
	digest  *replay.Digest
	windows []float64 // ms per quiesce window
}

func engineSchedOpts() sched.Options {
	o := serve.DefaultOptions().Sched
	o.PostProcess = false // as every serving engine runs it
	return o
}

// models resolves each distinct model name of reqs once, in first-use
// order.
func models(reqs []capture.Entry) ([]string, map[string]*dnn.Model, error) {
	var names []string
	byName := map[string]*dnn.Model{}
	for _, e := range reqs {
		if byName[e.Model] != nil {
			continue
		}
		m, err := dnn.ByName(e.Model)
		if err != nil {
			return nil, nil, err
		}
		byName[e.Model] = m
		names = append(names, e.Model)
	}
	return names, byName, nil
}

// isolatedGap is the largest isolated latency among the models on
// hda: a stream whose arrivals are that far apart on average keeps one
// replica under capacity.
func isolatedGap(cache *maestro.Cache, hda *accel.HDA, names []string) (int64, error) {
	s, err := sched.New(cache, sched.DefaultOptions())
	if err != nil {
		return 0, err
	}
	var gap int64
	for _, name := range names {
		w, err := workload.SingleDNN(name, 1)
		if err != nil {
			return 0, err
		}
		sch, err := s.Schedule(hda, w)
		if err != nil {
			return 0, err
		}
		gap = max(gap, sch.MakespanCycles)
	}
	return gap, nil
}

// extendStream cycles through the peel's requests, re-spacing their
// arrivals by a seeded uniform gap around gap, for n admissions.
func extendStream(in *peelInput, gap int64, n int, seed int64) []capture.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]capture.Entry, n)
	var at int64
	for i := range out {
		at += gap/2 + rng.Int63n(gap)
		out[i] = in.reqs[i%len(in.reqs)]
		out[i].ArrivalCycle = at
	}
	return out
}

// runtimeSample reads the Go runtime counters the per-request
// figures are made of.
type runtimeSample struct{ allocBytes, allocObjects, gcCPU, totalCPU, heapBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return float64(v.Uint64())
	}
	return runtimeSample{f(s[0].Value), f(s[1].Value), f(s[2].Value), f(s[3].Value), f(s[4].Value)}
}

// probeMaestro times uncached and cached cost-model lookups for every
// layer of the stream's models on every sub-accelerator.
func probeMaestro(r *run, in *peelInput) error {
	names, byName, err := models(in.reqs)
	if err != nil {
		return err
	}
	cache := newCache()
	pass := func() (time.Duration, int) {
		start, calls := time.Now(), 0
		for _, name := range names {
			m := byName[name]
			for li := range m.Layers {
				for _, sub := range in.hda.Subs {
					cache.Estimate(&m.Layers[li], sub.Style, sub.HW)
					calls++
				}
			}
		}
		return time.Since(start), calls
	}
	cold, _ := pass()
	misses := cache.Len()
	var warm []float64
	for range 5 {
		d, calls := pass()
		warm = append(warm, float64(d.Nanoseconds())/float64(calls))
	}
	r.set("maestro.miss_us", us(cold)/float64(max(misses, 1)), "us")
	r.set("maestro.hit_ns", median(warm), "ns")
	return nil
}

// probeDesign runs the workload's design queries on a fresh cache: a
// cold exhaustive pass, warm re-scheduling of each Best design, and a
// pruned best-only pass.
func probeDesign(r *run, in *peelInput) error {
	cache := newCache()
	res, err := searchSuite(r, cache, in.jobs, dse.DefaultOptions(), 0)
	if err != nil {
		return err
	}
	r.set("maestro.entries", float64(cache.Len()), "count")
	s, err := sched.New(cache, dse.DefaultOptions().Sched)
	if err != nil {
		return err
	}
	const reps = 5
	var per []float64
	before := readRuntime()
	for range reps {
		for i, j := range in.jobs {
			start := time.Now()
			sch, err := s.Schedule(res[i].Best.HDA, j.w)
			per = append(per, us(time.Since(start)))
			if err != nil {
				return err
			}
			s.Recycle(sch)
		}
	}
	after := readRuntime()
	r.set("sched.schedule_us", median(per), "us")
	r.set("sched.schedule_allocs", (after.allocObjects-before.allocObjects)/float64(len(per)), "count")
	opts := dse.DefaultOptions()
	opts.BestOnly, opts.Prune = true, true
	pruned, err := searchSuite(r, cache, in.jobs, opts, 0)
	if err != nil {
		return err
	}
	var points, skipped int
	for _, p := range pruned {
		points += p.Explored
		skipped += p.Pruned
	}
	r.set("dse.points", float64(points), "count")
	r.set("dse.pruned", float64(skipped), "count")
	return nil
}

// probeHistory admits a long under-capacity stream one request at a
// time, both straight into an Incremental schedule and through a
// serving engine, sampling per-admission cost and Engine.Stats at the
// history marks, and the heap the engine's history holds per request.
func probeHistory(r *run, in *peelInput, cache *maestro.Cache) error {
	_, byName, err := models(in.reqs)
	if err != nil {
		return err
	}
	stream := extendStream(in, in.gap, historyMarks[len(historyMarks)-1], r.seed)
	s, err := sched.New(cache, engineSchedOpts())
	if err != nil {
		return err
	}
	inc, err := s.Incremental(in.hda, "history")
	if err != nil {
		return err
	}
	mark := 0
	var spent time.Duration
	var before runtimeSample
	for i, e := range stream {
		if i == historyMarks[mark]-historyWindow {
			spent, before = 0, readRuntime()
		}
		adm := []sched.Admission{{Instance: workload.Instance{Model: byName[e.Model], Batch: 1, ArrivalCycle: e.ArrivalCycle}}}
		start := time.Now()
		if _, err := inc.Extend(adm); err != nil {
			return fmt.Errorf("extend %d: %w", i, err)
		}
		spent += time.Since(start)
		if i == historyMarks[mark]-1 {
			r.set(fmt.Sprintf("sched.extend_us_h%dk", historyMarks[mark]>>10), us(spent)/historyWindow, "us")
			if mark == len(historyMarks)-1 {
				r.set("sched.extend_allocs", (readRuntime().allocObjects-before.allocObjects)/historyWindow, "count")
			}
			mark = min(mark+1, len(historyMarks)-1)
		}
	}

	eng, err := serve.New(cache, in.hda, serve.DefaultOptions())
	if err != nil {
		return err
	}
	defer eng.Drain(context.Background()) // only stops the engine; the probe's figures are taken
	runtime.GC()
	heap0 := readRuntime().heapBytes
	for i, e := range stream {
		t, err := eng.Submit(serve.Request{Tenant: e.Tenant, Model: e.Model, ArrivalCycle: e.ArrivalCycle})
		if err != nil {
			return fmt.Errorf("engine submit %d: %w", i, err)
		}
		if rec, err := t.Wait(context.Background()); err != nil || rec.Status != serve.StatusDone {
			return fmt.Errorf("engine request %d: %v %v", i, rec.Status, err)
		}
		if n := i + 1; n == historyMarks[1] || n == historyMarks[2] {
			var calls []float64
			for range 3 {
				start := time.Now()
				eng.Stats()
				calls = append(calls, ms(time.Since(start)))
			}
			r.set(fmt.Sprintf("serve.stats_ms_h%dk", n>>10), median(calls), "ms")
		}
	}
	runtime.GC()
	r.set("serve.heap_kb_per_req", (readRuntime().heapBytes-heap0)/1024/float64(len(stream)), "KB")
	return nil
}

// probeOverload admits fused segment chains at 3.5x one engine's
// capacity, so the backlog deepens with every admission, and times
// each chain's Extend once the backlog is deep. It also times the
// fusion-cut search per model.
func probeOverload(r *run, in *peelInput, cache *maestro.Cache) error {
	names, byName, err := models(in.reqs)
	if err != nil {
		return err
	}
	slices := map[string][]*dnn.Model{}
	var planMS []float64
	for _, name := range names {
		start := time.Now()
		p, err := dse.PlanSegments(cache, in.hda, byName[name], dse.ObjectiveEDP, maxSegments)
		planMS = append(planMS, ms(time.Since(start)))
		if err != nil {
			return err
		}
		if slices[name], err = p.Slices(byName[name]); err != nil {
			return err
		}
	}
	r.set("dse.plan_segments_ms", median(planMS), "ms")

	s, err := sched.New(cache, engineSchedOpts())
	if err != nil {
		return err
	}
	inc, err := s.Incremental(in.hda, "overload")
	if err != nil {
		return err
	}
	// A seventh of the under-capacity spacing offers one engine several
	// times what it serves, as replay-overload does the fleet.
	stream := extendStream(in, max(in.gap/7, 2), overloadN, r.seed)
	var spent time.Duration
	for i, e := range stream {
		base := inc.NumInstances()
		var adms []sched.Admission
		for k, seg := range slices[e.Model] {
			a := sched.Admission{Instance: workload.Instance{Model: seg, Batch: 1, ArrivalCycle: e.ArrivalCycle}}
			if k > 0 {
				a.After = base + k // 1 + the predecessor's global index
			}
			adms = append(adms, a)
		}
		start := time.Now()
		if _, err := inc.Extend(adms); err != nil {
			return fmt.Errorf("overload extend %d: %w", i, err)
		}
		if i >= overloadN-historyWindow {
			spent += time.Since(start)
		}
	}
	r.set("sched.extend_us_overload", us(spent)/historyWindow, "us")
	return nil
}

// peel sends the same requests through the layers, outermost first:
// the fleet's HTTP handler in process, Fleet.Submit, one engine per
// replica fed the share the fleet routed to it, Incremental.Extend on
// the same admissions, and the cost lookups of each request's layers.
// Each layer has its own instance and sees every request once; the
// layers take turns request by request, so a slow moment of the
// machine falls on all of them alike. A layer's self time is its
// per-request mean minus the next layer's.
func peel(r *run, in *peelInput, cache *maestro.Cache) error {
	ctx := context.Background()
	reqs := in.reqs[:min(peelSize, len(in.reqs))]
	_, byName, err := models(reqs)
	if err != nil {
		return err
	}
	newFleet := func() (*fleet.Fleet, error) {
		return fleet.Replicated(cache, in.hda, 2, fleet.DefaultOptions())
	}
	request := func(e capture.Entry) serve.Request {
		return serve.Request{Tenant: e.Tenant, Model: e.Model, ArrivalCycle: e.ArrivalCycle}
	}
	wait := func(t interface {
		Wait(context.Context) (serve.Record, error)
	}) error {
		rec, err := t.Wait(ctx)
		if err == nil && rec.Status != serve.StatusDone {
			err = fmt.Errorf("status %s: %s", rec.Status, rec.Err)
		}
		return err
	}
	// Cost lookups a request's admission makes: every layer on every
	// sub-accelerator.
	lookups := 0
	lookup := func(e capture.Entry) {
		m := byName[e.Model]
		for li := range m.Layers {
			for _, sub := range in.hda.Subs {
				cache.Estimate(&m.Layers[li], sub.Style, sub.HW)
				lookups++
			}
		}
	}
	for _, e := range reqs { // warm the cache: no layer pays misses the others do not
		lookup(e)
	}
	lookups = 0

	fh, err := newFleet()
	if err != nil {
		return err
	}
	h := fh.Handler()
	ff, err := newFleet()
	if err != nil {
		return err
	}
	engines := make([]*serve.Engine, 2)
	incs := make([]*sched.Incremental, 2)
	s, err := sched.New(cache, engineSchedOpts())
	if err != nil {
		return err
	}
	for i := range engines {
		if engines[i], err = serve.New(cache, in.hda, serve.DefaultOptions()); err != nil {
			return err
		}
		if incs[i], err = s.Incremental(in.hda, fmt.Sprintf("replica-%d", i)); err != nil {
			return err
		}
	}

	layers := []string{"http.ServeHTTP", "fleet.Submit", "serve.Submit", "sched.Extend", "maestro.Estimate"}
	per := make([]time.Duration, len(layers))
	parents := make([]int64, len(layers))
	ends := make([]func(), len(layers))
	for k, name := range layers {
		parents[k], ends[k] = r.tr.open("peel."+name, 0, -1)
	}
	shares := make([]float64, 2)
	var fleetAlloc float64
	runtime.GC()
	cpu0 := readRuntime()
	for i, e := range reqs {
		replica := 0
		calls := []func() error{
			func() error {
				b, _ := json.Marshal(body(e)) // plain struct; cannot fail
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(b)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
				return nil
			},
			func() error {
				before := readRuntime()
				t, err := ff.Submit(request(e))
				if err != nil {
					return err
				}
				err = wait(t)
				replica = t.Served()
				fleetAlloc += readRuntime().allocBytes - before.allocBytes
				return err
			},
			func() error {
				t, err := engines[replica].Submit(request(e))
				if err != nil {
					return err
				}
				return wait(t)
			},
			func() error {
				_, err := incs[replica].Extend([]sched.Admission{{Instance: workload.Instance{Model: byName[e.Model], Batch: 1, ArrivalCycle: e.ArrivalCycle}}})
				return err
			},
			func() error { lookup(e); return nil },
		}
		for k, call := range calls {
			start := time.Now()
			err := call()
			end := time.Now()
			r.attempted++
			if err != nil {
				return fmt.Errorf("%s request %d: %w", layers[k], i, err)
			}
			per[k] += end.Sub(start)
			r.tr.record(layers[k], parents[k], int64(i), start, end)
		}
		shares[replica]++
	}
	cpu1 := readRuntime()
	for _, end := range ends {
		end()
	}

	n := float64(len(reqs))
	perReq := func(k int) float64 { return us(per[k]) / n }
	r.set("http.self_us", perReq(0)-perReq(1), "us")
	r.set("fleet.dispatch_self_us", perReq(1)-perReq(2), "us")
	r.set("serve.turnaround_us", perReq(2), "us")
	r.set("serve.self_us", perReq(2)-perReq(3), "us")
	r.set("fleet.replica_share_max", max(shares[0], shares[1])/n, "ratio")
	r.set("go.alloc_kb_per_req", fleetAlloc/1024/n, "KB")
	r.set("go.gc_cpu_pct", 100*(cpu1.gcCPU-cpu0.gcCPU)/max(cpu1.totalCPU-cpu0.totalCPU, 1e-9), "%")
	r.note("peel_us_per_request", map[string]float64{
		"http": perReq(0), "fleet": perReq(1), "serve": perReq(2), "extend": perReq(3), "maestro": perReq(4),
	})
	r.note("peel_requests", len(reqs))
	r.note("peel_lookups_per_request", float64(lookups)/n)

	mix := ff.ObservedMix("observed")
	for _, f := range []*fleet.Fleet{fh, ff} {
		if _, err := f.Drain(ctx); err != nil {
			return err
		}
	}
	for _, e := range engines {
		if _, err := e.Drain(ctx); err != nil {
			return err
		}
	}

	// Loopback: the same requests from a paced client over TCP to the
	// same handler, so client-observed turnaround minus the in-process
	// handler time is the loopback's share.
	fl, err := newFleet()
	if err != nil {
		return err
	}
	srv := httptest.NewServer(fl.Handler())
	client := newClient()
	pid, end := r.tr.open("peel.http.loopback", 0, -1)
	p := send(client, srv.URL, reqs, 1000, maxConns, nil, 0)
	end()
	client.CloseIdleConnections()
	srv.Close()
	if _, err := fl.Drain(ctx); err != nil {
		return err
	}
	r.attempted += int64(p.Attempted)
	if p.Failed > 0 {
		return fmt.Errorf("loopback: %d of %d failed: %v", p.Failed, p.Attempted, p.firstErr)
	}
	var turn float64
	for i := range p.Done {
		turn += us(p.Done[i] - p.Sent[i])
		r.tr.record("http.loopback", pid, int64(i), p.Start.Add(p.Sent[i]), p.Start.Add(p.Done[i]))
	}
	r.set("http.loopback_us", turn/float64(len(p.Done))-perReq(0), "us")
	late, _ := percentile(p.Late, 99)
	r.set("gen.late_p99_ms", late, "ms")

	// The sweeper probe a repartitioning controller fires, warm, on the
	// mix the fleet observed.
	opts := dse.DefaultOptions()
	opts.BestOnly, opts.Prune = true, true
	sw, err := dse.NewSweeper(cache, in.space, opts)
	if err != nil {
		return err
	}
	var sweeps []float64
	for k := range 4 {
		start := time.Now()
		if _, err := sw.Sweep(mix); err != nil {
			return err
		}
		if k > 0 {
			sweeps = append(sweeps, ms(time.Since(start)))
		}
	}
	r.set("dse.sweep_ms", median(sweeps), "ms")
	return nil
}

// probeReplay reports the replay layer and the controller and fusion
// counts of its digest: from the workload's own traced replay when it
// has one, else from replaying the peel requests.
func probeReplay(r *run, in *peelInput, cache *maestro.Cache) error {
	rr := in.replayed
	if rr == nil {
		s, err := newReplaySetup(r, cache, in.reqs[:min(peelSize, len(in.reqs))], in.hda, in.space)
		if err != nil {
			return err
		}
		d, windows, err := s.replayOnce(r)
		if err != nil {
			return err
		}
		rr = &replayRun{d, windows}
	}
	d := rr.digest
	var canon []float64
	for range 3 {
		start := time.Now()
		if _, err := d.Canonical(); err != nil {
			return err
		}
		canon = append(canon, ms(time.Since(start)))
	}
	r.set("replay.window_ms", median(rr.windows), "ms")
	r.set("replay.digest_ms", median(canon), "ms")
	r.set("fleet.elastic_steps", float64(len(d.ElasticDecisions)), "count")
	r.set("fleet.pe_reassigns", float64(d.Counters.PEReassigns), "count")
	r.set("fleet.preemptions", float64(d.Counters.Preemptions), "count")
	r.set("fleet.migrations", float64(d.Counters.Migrations), "count")
	r.set("serve.segments", float64(d.Counters.Segments.Segments), "count")
	// The steady control tenant's mean queueing; streams without one
	// report the completion-weighted mean over all tenants.
	var queue, done float64
	for _, t := range d.Tenants {
		if t.Tenant == "steady" {
			queue, done = float64(t.MeanQueueCycles), 1
			break
		}
		queue += float64(t.MeanQueueCycles) * float64(t.Completed)
		done += float64(t.Completed)
	}
	r.set("sim.steady_queue_ms", queue/max(done, 1)/1e6, "ms")
	return nil
}

// probeAll runs every layer probe on the workload's inputs.
func probeAll(r *run, in *peelInput) error {
	cache := newCache()
	for _, probe := range []func() error{
		func() error { return probeMaestro(r, in) },
		func() error { return probeDesign(r, in) },
		func() error { return probeHistory(r, in, cache) },
		func() error { return probeOverload(r, in, cache) },
		func() error { return peel(r, in, cache) },
		func() error { return probeReplay(r, in, cache) },
	} {
		runtime.GC() // each probe starts from a clean heap, not the last one's garbage
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// overhead times job untraced and with r's tracer on, alternating
// twice after one untimed warm-up run (the process's first run pays
// heap growth and page faults), and reports the traced total's excess
// as a share of the untraced one.
func overhead(r *run, job func() error) error {
	tr := r.tr
	r.tr = nil
	if err := job(); err != nil {
		return err
	}
	var plain, traced time.Duration
	for k := range 4 {
		r.tr = nil
		if k%2 == 1 {
			r.tr = tr
		}
		runtime.GC()
		start := time.Now()
		if err := job(); err != nil {
			return err
		}
		if k%2 == 1 {
			traced += time.Since(start)
		} else {
			plain += time.Since(start)
		}
	}
	r.tr = tr
	r.set("trace.overhead_pct", 100*(traced-plain).Seconds()/plain.Seconds(), "%")
	r.note("trace_job_s", map[string]float64{"untraced": plain.Seconds(), "traced": traced.Seconds()})
	return nil
}

// mixJob is a design query for one instance of each of names.
func mixJob(space dse.Space, names []string) (designJob, error) {
	var entries []workload.Entry
	for _, n := range names {
		entries = append(entries, workload.Entry{Model: n, Batches: 1})
	}
	w, err := workload.New("mix", entries)
	return designJob{space, w}, err
}

func layersDesign(r *run) error {
	r.tr = newTracer()
	jobs := designSuite(r.seed)
	var results []*dse.Result
	if err := overhead(r, func() error {
		cache := newCache()
		for k := range 2 {
			pid, end := r.tr.open(fmt.Sprintf("suite.pass%d", k), 0, -1)
			res, err := searchSuite(r, cache, jobs, dse.DefaultOptions(), pid)
			end()
			if err != nil {
				return err
			}
			for i := 0; results != nil && i < len(jobs); i++ {
				r.check(sameBest(res[i].Best, results[i].Best), "%s: pass chose %v, the pass before %v", jobs[i], res[i].Best.HDA, results[i].Best.HDA)
			}
			results = res
		}
		return nil
	}); err != nil {
		return err
	}
	// The suite's tenants are its workloads; the substrate is the Best
	// edge design for AR/VR-A.
	var tenants []tenantMix
	var hda *accel.HDA
	var space dse.Space
	for i, j := range jobs {
		if j.space.Class.Name != accel.Edge.Name {
			continue
		}
		if j.w.Name == workload.ARVRA().Name {
			hda, space = results[i].Best.HDA, j.space
		}
		t := tenantMix{name: j.w.Name}
		for _, inst := range j.w.Instances {
			t.models = append(t.models, inst.Model.Name)
			t.weights = append(t.weights, 1/float64(len(j.w.Instances)))
		}
		tenants = append(tenants, t)
	}
	cache := newCache()
	reqs, gap, err := mixStream(cache, hda, r.seed, tenants, peelSize)
	if err != nil {
		return err
	}
	return probeAll(r, &peelInput{hda: hda, space: space, reqs: reqs, jobs: jobs, gap: gap})
}

func layersServe(r *run) error {
	r.tr = newTracer()
	client := newClient()
	defer client.CloseIdleConnections()
	d, _, err := startDaemon(r.heraldd, client)
	if err != nil {
		return err
	}
	defer d.stop()
	cache := newCache()
	hda, err := bootstrapHDA(cache)
	if err != nil {
		return err
	}
	stream, gap, err := mixStream(cache, hda, r.seed, serveTenants, 5*burst+peelSize)
	if err != nil {
		return err
	}
	// After a warm-up burst, two bursts untraced and two traced,
	// alternating, so the history each side runs behind is about the
	// same.
	var plain, traced time.Duration
	for k := range 5 {
		var tr *tracer
		var pid int64
		end := func() {}
		if k%2 == 0 && k > 0 {
			tr = r.tr
			pid, end = tr.open("burst", 0, -1)
		}
		p := send(client, d.base, stream[k*burst:(k+1)*burst], 0, 1, tr, pid)
		end()
		r.check(p.Failed == 0, "burst %d: %d of %d requests failed: %v", k, p.Failed, p.Attempted, p.firstErr)
		switch {
		case k == 0: // warm-up
		case tr != nil:
			traced += p.Wall
		default:
			plain += p.Wall
		}
	}
	r.set("trace.overhead_pct", 100*(traced-plain).Seconds()/plain.Seconds(), "%")
	jobSpace := dse.Space{Class: accel.Edge, Styles: hda.Styles(), PEUnits: 8, BWUnits: 4}
	job, err := mixJob(jobSpace, serveModels)
	if err != nil {
		return err
	}
	return probeAll(r, &peelInput{hda: hda, space: jobSpace, reqs: stream[5*burst:], jobs: []designJob{job}, gap: gap})
}

func layersReplay(r *run) error {
	s, err := newOverloadSetup(r, r.seed)
	if err != nil {
		return err
	}
	r.tr = newTracer()
	var rr replayRun
	var first string
	if err := overhead(r, func() error {
		d, windows, err := s.replayOnce(r)
		if err != nil {
			return err
		}
		rr = replayRun{d, windows}
		hash, err := d.Hash()
		if first == "" {
			first = hash
		}
		r.check(err == nil && hash == first, "replay digest %s differs from the first replay's %s (%v)", hash, first, err)
		r.check(d.Conservation.Holds, "replay conservation violated: %+v", d.Conservation)
		return nil
	}); err != nil {
		return err
	}
	names, _, err := models(s.trace.Entries)
	if err != nil {
		return err
	}
	gap, err := isolatedGap(s.cache, s.hdas[0], names)
	if err != nil {
		return err
	}
	job, err := mixJob(s.sw.Space(), names)
	if err != nil {
		return err
	}
	return probeAll(r, &peelInput{
		hda: s.hdas[0], space: s.sw.Space(), reqs: s.trace.Entries, jobs: []designJob{job}, gap: gap, replayed: &rr,
	})
}
