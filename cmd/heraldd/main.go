// Command heraldd is Herald's online serving daemon: the runtime
// counterpart of cmd/herald's design-time search. At startup it fixes
// an HDA — either the best point of a bootstrap dse.Search over a
// representative workload, or an explicit -partition — then serves a
// JSON-over-HTTP API that admits DNN inference requests at runtime,
// extends the layer schedule incrementally, and reports per-request
// latency/SLA statistics plus aggregate throughput.
//
// With -replicas N > 1 the daemon serves a *fleet*: N replica engines
// behind a routing policy (-fleet-policy round-robin,
// least-outstanding or cost-aware). -fleet-topk makes the fleet
// heterogeneous: the replicas take the top-K design points of the
// bootstrap DSE instead of K copies of the best.
//
// Examples:
//
//	go run ./cmd/heraldd -addr :8080 -class edge -bootstrap arvr-a
//	go run ./cmd/heraldd -class mobile -styles nvdla,shi-diannao \
//	    -pe-units 8 -bw-units 4 -objective latency
//	go run ./cmd/heraldd -class edge -partition "nvdla:512:8,shi-diannao:512:8"
//	go run ./cmd/heraldd -class edge -replicas 4 -fleet-policy cost-aware
//	go run ./cmd/heraldd -class edge -replicas 3 -fleet-topk
//	go run ./cmd/heraldd -class edge -replicas 2 -resweep-every 30s
//	go run ./cmd/heraldd -class edge -replicas 2 -resweep-every 30s -repartition
//	go run ./cmd/heraldd -class edge -fuse -max-segments 4
//	go run ./cmd/heraldd -class edge -replicas 2 -fuse -mix-half-life 256
//
// -fuse turns on layer-fused segment serving: at startup the daemon
// searches each zoo model's fusion cuts on the serving HDA (bounded by
// -max-segments) and admits each request for a splitting model as a
// chain of per-segment instances, so consecutive requests pipeline
// across sub-accelerators. Fleets route the segments cost-aware across
// replicas; GET /v1/stats reports the segment counters.
// -mix-half-life makes the resweep probe's observed mix exponentially
// decayed instead of all-time.
//
// -resweep-every N periodically re-runs the partition DSE on the
// observed tenant mix. Alone it is a log-only probe; -repartition or
// -elastic turns it into the period of the fleet controller, in one of
// its two presets. -repartition is the migration-only ladder: it
// live-migrates the fleet to the winning partition (spawn new replica
// engines, drain the old generation, hand tenants over) when the
// winner beats the serving partition by -repartition-threshold for
// -repartition-confirm consecutive probes, then rests for
// -repartition-cooldown probes (anti-flap). -elastic re-slices PEs in
// place first and migrates only on persistent unreachable drift. See
// docs/OPERATIONS.md for the full runbook.
//
// Fault tolerance (see docs/OPERATIONS.md, "Failure handling"):
// -faults injects a deterministic, cycle-scheduled fault plan
// ("3000:0:crash,5000:0:recover") for chaos testing; crashed
// replicas' queued requests fail over to survivors (bounded by
// -max-attempts) and a consecutive-failure circuit breaker
// (-breaker-threshold, -breaker-probe-after) routes around replicas
// that stop admitting. -shed-sla-factor turns on overload shedding:
// arrivals whose best ETA already blows their SLA budget get 429 +
// Retry-After instead of queueing. Both -faults and -shed-sla-factor
// serve a fleet even at -replicas 1. GET /v1/fleet/health reports
// per-replica health and the fault-handling decision log. The daemon
// shuts down gracefully on SIGINT/SIGTERM: stop admissions, drain
// in-flight work, log final stats.
//
// -capture streams every accepted request (tenant, model, arrival
// cycle, SLA, fusion-plan id) to a versioned JSONL trace file in
// admission order, flushed after the graceful drain. Together with the
// exported fault log (GET /v1/fleet/decisions) the trace re-runs
// offline under cmd/heraldplay — byte-reproducible incident replay and
// config A/B (docs/OPERATIONS.md, "Trace capture & replay").
//
// API (see internal/serve; fleets serve internal/fleet's API, which
// adds GET /v1/fleet/stats, GET /v1/fleet/repartition and
// /v1/replicas/{i}/... delegation):
//
//	POST /v1/requests      {"tenant":"arvr","model":"unet","wait":true}
//	GET  /v1/requests/{id}
//	GET  /v1/stats
//	GET  /v1/schedule
//	POST /v1/drain
//	GET  /v1/models | /v1/hda | /v1/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	herald "repro"
	"repro/cmd/internal/cli"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	className := flag.String("class", "edge", "accelerator class: edge, mobile, cloud")
	stylesFlag := flag.String("styles", "nvdla,shi-diannao", "comma-separated sub-accelerator dataflow styles")
	peUnits := flag.Int("pe-units", 8, "bootstrap DSE PE partitioning granularity")
	bwUnits := flag.Int("bw-units", 4, "bootstrap DSE bandwidth partitioning granularity")
	strategyFlag := flag.String("strategy", "exhaustive", "bootstrap search strategy: exhaustive, binary, random")
	objectiveFlag := flag.String("objective", "edp", "bootstrap search objective: edp, latency, energy")
	bootstrap := flag.String("bootstrap", "arvr-a", "bootstrap workload the DSE optimizes the HDA for: arvr-a, arvr-b, mlperf")
	partitionFlag := flag.String("partition", "", "skip the DSE; serve on this fixed partition (style:pes:bw,...)")
	clockGHz := flag.Float64("clock-ghz", 1.0, "accelerator clock for cycle<->seconds stats")
	maxQueue := flag.Int("max-queue", 1024, "per-tenant pending-queue capacity (per replica)")
	maxBatch := flag.Int("max-batch", 8, "max admissions coalesced per scheduling round")
	replicas := flag.Int("replicas", 1, "replica serving engines; > 1 serves a fleet")
	fleetPolicy := flag.String("fleet-policy", "cost-aware", "fleet routing policy: round-robin, least-outstanding, cost-aware")
	fleetTopK := flag.Bool("fleet-topk", false, "heterogeneous fleet: replicas take the top-K bootstrap-DSE points instead of K copies of the best")
	resweepEvery := flag.Duration("resweep-every", 0, "periodically re-run the partition DSE on the observed tenant mix (0 = off; log-only unless -repartition or -elastic)")
	ctrlFlags := cli.RegisterControllerFlags(flag.CommandLine, "every -resweep-every period", "-resweep-every > 0")
	fuse := flag.Bool("fuse", false, "layer-fused segment serving: decompose each request into its model's winning segment chain so consecutive requests pipeline across sub-accelerators")
	maxSegments := flag.Int("max-segments", 4, "upper bound on segments per fused request (with -fuse; >= 2)")
	mixHalfLife := flag.Int("mix-half-life", 0, "observed-mix half-life in submissions for resweep probes (0 = all-time counts)")
	faultsFlag := flag.String("faults", "", "deterministic fault plan, cycle:replica:kind[:arg],... (kinds: crash, stall:factor, admit-fail:count, recover); serves a fleet even with -replicas 1")
	shedSLAFactor := flag.Float64("shed-sla-factor", 0, "shed arrivals whose best-ETA lateness exceeds this multiple of their SLA, with 429 + Retry-After (0 = off; needs cost-aware routing and per-request sla_cycles; serves a fleet even with -replicas 1)")
	maxAttempts := flag.Int("max-attempts", 3, "per-request admission budget across crash failovers (initial dispatch included)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive replica admission failures that open its circuit breaker")
	breakerProbeAfter := flag.Int("breaker-probe-after", 8, "fleet dispatches after a breaker opens before it admits a half-open probe")
	capturePath := flag.String("capture", "", "stream every accepted request to this JSONL trace file, flushed on graceful shutdown (replay it with cmd/heraldplay)")
	flag.Parse()

	class, err := herald.ParseClass(*className)
	if err != nil {
		log.Fatal(err)
	}
	if *replicas < 1 {
		log.Fatalf("-replicas must be >= 1 (got %d)", *replicas)
	}
	ctrlOpts, err := ctrlFlags.Options(*resweepEvery > 0)
	if err != nil {
		log.Fatal(err)
	}
	var faultPlan *herald.FaultPlan
	if *faultsFlag != "" {
		if faultPlan, err = herald.ParseFaultPlan(*faultsFlag); err != nil {
			log.Fatal(err)
		}
	}
	cache := herald.NewCostCache(herald.DefaultEnergyTable())

	var hdas []*herald.HDA
	if *partitionFlag != "" {
		if *fleetTopK {
			log.Fatal("-fleet-topk needs the bootstrap DSE; it cannot be combined with -partition")
		}
		parts, err := cli.ParsePartition(*partitionFlag)
		if err != nil {
			log.Fatal(err)
		}
		hda, err := herald.NewHDA("heraldd", class, parts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving on fixed partition %v", hda)
		hdas = repeatHDA(hda, *replicas)
	} else {
		res, objective, err := bootstrapSearch(cache, class, *stylesFlag, *peUnits, *bwUnits, *strategyFlag, *objectiveFlag, *bootstrap)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("bootstrap DSE: %d points, best (%s) %v", len(res.Points), *objectiveFlag, res.Best.HDA)
		if *fleetTopK && *replicas > 1 {
			hdas = topKHDAs(res, objective, *replicas)
		} else {
			hdas = repeatHDA(res.Best.HDA, *replicas)
		}
	}

	srvOpts := herald.DefaultServingOptions()
	srvOpts.ClockGHz = *clockGHz
	srvOpts.MaxQueue = *maxQueue
	srvOpts.MaxBatch = *maxBatch
	// The elastic controller's SLA-risk trigger checkpoints and resumes
	// placements at layer boundaries; the engines must track revocable
	// placements for that (the reassignment path needs nothing extra).
	srvOpts.Elastic = ctrlFlags.Elastic

	// Trace capture: the recorder hooks the engine's (or fleet's)
	// OnAccept, so the trace is exactly the accepted-submission
	// sequence in admission order — the input cmd/heraldplay replays.
	var rec *herald.TraceRecorder
	var captureFile *os.File
	var record func(req herald.InferenceRequest, plan string)
	if *capturePath != "" {
		f, err := os.Create(*capturePath)
		if err != nil {
			log.Fatal(err)
		}
		captureFile = f
		if rec, err = herald.NewTraceRecorder(f, "heraldd capture"); err != nil {
			log.Fatal(err)
		}
		record = func(req herald.InferenceRequest, plan string) {
			_ = rec.Record(herald.TraceEntry{ // sticky error, reported at flush
				Tenant: req.Tenant, Model: req.Model, ArrivalCycle: req.ArrivalCycle,
				SLACycles: req.SLACycles, Priority: req.Priority, Plan: plan,
			})
		}
		log.Printf("capturing accepted requests to %s", *capturePath)
	}

	var plans map[string]herald.SegmentPlan
	if *fuse {
		if *maxSegments < 2 {
			log.Fatalf("-fuse needs -max-segments >= 2 (got %d)", *maxSegments)
		}
		objOpts, err := cli.SearchOptions("exhaustive", *objectiveFlag)
		if err != nil {
			log.Fatal(err)
		}
		plans, err = cli.FusionPlans(cache, hdas[0], objOpts.Objective, *maxSegments, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("layer fusion on: %d of %d zoo models split (max %d segments)",
			len(plans), len(herald.ModelNames()), *maxSegments)
	}

	// The signal context drives graceful shutdown: stop admitting, stop
	// the repartition controller, drain, log final stats.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var handler http.Handler
	var drain func(context.Context)
	if *replicas == 1 && *resweepEvery <= 0 && faultPlan == nil && *shedSLAFactor == 0 {
		srvOpts.Plans = plans
		srvOpts.OnAccept = record
		engine, err := herald.NewServingEngine(cache, hdas[0], srvOpts)
		if err != nil {
			log.Fatal(err)
		}
		handler = engine.Handler()
		drain = func(ctx context.Context) {
			st, err := engine.Drain(ctx)
			if err != nil {
				log.Printf("drain: %v", err)
			}
			log.Printf("final stats: %d submitted, %d completed, %d failed, %d rejected",
				st.Submitted, st.Completed, st.Failed, st.Rejected)
		}
		log.Printf("heraldd listening on %s (HDA %v, clock %g GHz)", *addr, hdas[0], *clockGHz)
	} else {
		// A resweep probe needs the fleet dispatcher's observed-mix
		// accounting — and fault injection/shedding live in the fleet
		// dispatcher — so those flags promote even a single replica to
		// a fleet of one.
		policy, err := herald.ParseFleetPolicy(*fleetPolicy)
		if err != nil {
			log.Fatal(err)
		}
		fopts := herald.FleetOptions{
			Serve: srvOpts, Policy: policy, Plans: plans, MixHalfLife: *mixHalfLife,
			OnAccept: record,
			Faults:   faultPlan,
			Health: herald.FleetHealthOptions{
				FailureThreshold: *breakerThreshold,
				ProbeAfter:       *breakerProbeAfter,
				MaxAttempts:      *maxAttempts,
				ShedSLAFactor:    *shedSLAFactor,
			},
		}
		if *resweepEvery > 0 {
			sw, err := cli.Sweeper(cache, class, *stylesFlag, *peUnits, *bwUnits, *strategyFlag, *objectiveFlag)
			if err != nil {
				log.Fatal(err)
			}
			fopts.Sweeper = sw
		}
		fl, err := herald.NewFleet(cache, hdas, fopts)
		if err != nil {
			log.Fatal(err)
		}
		handler = fl.Handler()
		drain = func(ctx context.Context) {
			st, err := fl.Drain(ctx)
			if err != nil {
				log.Printf("drain: %v", err)
			}
			log.Printf("final stats: %d submitted, %d completed, %d failed, %d rejected, %d shed, %d failovers",
				st.Submitted, st.Completed, st.Failed, st.Rejected, st.Shed, st.Failovers)
		}
		for i, h := range hdas {
			log.Printf("  replica %d: %v", i, h)
		}
		log.Printf("heraldd fleet listening on %s (%d replicas, %s routing, clock %g GHz)",
			*addr, len(hdas), policy, *clockGHz)
		if faultPlan != nil {
			log.Printf("fault injection on: %d scheduled events (-faults)", len(faultPlan.Events))
		}
		if *shedSLAFactor > 0 {
			log.Printf("overload shedding on: budget %gx SLA (-shed-sla-factor)", *shedSLAFactor)
		}
		if ctrlOpts != nil {
			ctrlOpts.Logf = log.Printf
			ctrl, err := herald.NewElasticController(fl, *ctrlOpts)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("%s every %v", ctrlFlags, *resweepEvery)
			// The signal context stops the controller before the drain.
			go ctrl.Run(ctx, *resweepEvery)
		} else if *resweepEvery > 0 {
			log.Printf("resweep probe every %v (log-only; add -repartition or -elastic to act on it)", *resweepEvery)
			go resweepLoop(ctx, fl, *resweepEvery, log.Printf)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stopSignals() // a second signal kills the process the default way
	log.Printf("signal received; shutting down (draining in-flight work)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("http shutdown: %v", err)
	}
	drain(shutCtx)
	// Flush the capture after the drain: admissions have stopped, so
	// the trace is complete and replayable the moment the process
	// exits.
	if rec != nil {
		if err := rec.Flush(); err != nil {
			log.Printf("capture flush: %v", err)
		} else {
			log.Printf("captured %d accepted requests to %s", rec.Count(), *capturePath)
		}
		if err := captureFile.Close(); err != nil {
			log.Printf("capture close: %v", err)
		}
	}
}

// resweepLoop periodically fires resweepProbe and logs the outcome
// until ctx (the daemon's signal context) is cancelled.
func resweepLoop(ctx context.Context, fl *herald.Fleet, every time.Duration, logf func(string, ...any)) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			logf("%s", resweepProbe(fl))
		case <-ctx.Done():
			return
		}
	}
}

// resweepProbe runs one observed-mix resweep and renders the log line:
// what partition today's traffic would pick. It never acts on the
// result — that is the controller's job (-repartition / -elastic).
func resweepProbe(fl *herald.Fleet) string {
	res, err := fl.Resweep(nil)
	if err != nil {
		return fmt.Sprintf("resweep probe: %v", err)
	}
	return fmt.Sprintf("resweep probe: observed mix would pick %v (EDP %.4g J*s, latency %.3f ms; %d evaluated, %d pruned)",
		res.Best.HDA, res.Best.EDP, res.Best.LatencySec*1e3, res.Explored, res.Pruned)
}

// repeatHDA builds a homogeneous replica list.
func repeatHDA(hda *herald.HDA, n int) []*herald.HDA {
	out := make([]*herald.HDA, n)
	for i := range out {
		out[i] = hda
	}
	return out
}

// topKHDAs takes the fleet's replica substrates from the bootstrap
// search's top-K design points (cycling when the cloud is smaller
// than the fleet).
func topKHDAs(res *herald.SearchResult, objective herald.SearchObjective, n int) []*herald.HDA {
	top := res.TopK(objective, n)
	out := make([]*herald.HDA, n)
	for i := range out {
		out[i] = top[i%len(top)].HDA
	}
	return out
}

// bootstrapSearch runs the deploy-time DSE over the bootstrap
// workload; the caller picks the best point (homogeneous serving) or
// the top-K (heterogeneous fleet).
func bootstrapSearch(cache *herald.CostCache, class herald.Class, stylesCSV string, peUnits, bwUnits int, strategy, objective, bootstrap string) (*herald.SearchResult, herald.SearchObjective, error) {
	styles, err := cli.ParseStyles(stylesCSV)
	if err != nil {
		return nil, 0, err
	}
	w, err := bootstrapWorkload(bootstrap)
	if err != nil {
		return nil, 0, err
	}
	opts, err := cli.SearchOptions(strategy, objective)
	if err != nil {
		return nil, 0, err
	}
	sp := herald.SearchSpace{Class: class, Styles: styles, PEUnits: peUnits, BWUnits: bwUnits}
	res, err := herald.Search(cache, sp, w, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("bootstrap DSE: %w", err)
	}
	return res, opts.Objective, nil
}

func bootstrapWorkload(name string) (*herald.Workload, error) {
	switch strings.ToLower(name) {
	case "arvr-a", "arvra":
		return herald.ARVRA(), nil
	case "arvr-b", "arvrb":
		return herald.ARVRB(), nil
	case "mlperf":
		return herald.MLPerf(1), nil
	}
	return nil, fmt.Errorf("unknown bootstrap workload %q (want arvr-a, arvr-b, mlperf)", name)
}
