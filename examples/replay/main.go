// Replay drill: run the committed adversarial scenario corpus
// (testdata/scenarios) through the deterministic replay harness and
// assert the offline-A/B contract end to end:
//
//  1. corpus reproducibility: regenerating every committed spec
//     renders the committed trace byte for byte (the corpus never
//     silently drifts from the generator);
//  2. determinism: every replay — fault-free, under a fault plan, and
//     under a windowed repartitioning controller — renders a
//     byte-identical digest twice, including identical fault-handling
//     decision logs;
//  3. conservation: every accepted request completes or terminally
//     fails, nothing pending after the drain, under every scenario
//     and fault schedule;
//  4. bounded degradation: the steady probe tenant's p99 latency
//     under each hostile scenario (and under faults) stays within a
//     generous envelope of the smooth-control run — hostile tenants
//     and injected faults must not starve the well-behaved tenant
//     without bound.
//
// The drill exits non-zero on any violation, so CI gates on it
// (make replay).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	herald "repro"
)

// p99Envelope bounds the steady tenant's p99 under hostility as a
// multiple of the smooth-control p99. The control run serves the
// steady probes alone, so its p99 is nearly pure execution; under a
// flash crowd or a replica crash the probe rightly queues — the
// envelope only asserts the degradation is bounded, not small (the
// corpus currently peaks at ~11x under flip-flop + faults).
const p99Envelope = 25

// window paces hostile replays: admitting the trace in quiesce windows
// of this many entries keeps the crowd from all queueing ahead of the
// steady probes at once, mirroring live arrival pacing.
const window = 16

var hostile = []string{"zipf", "diurnal", "flash", "correlated", "flipflop"}

func main() {
	log.SetFlags(0)
	dir := filepath.Join("testdata", "scenarios")

	// Gate 1: the committed corpus regenerates byte for byte.
	for _, name := range append([]string{"control"}, hostile...) {
		if err := checkCorpus(dir, name); err != nil {
			log.Fatalf("FAIL corpus: %v", err)
		}
	}
	log.Printf("corpus reproducible: %d committed traces regenerate byte-identically", 1+len(hostile))

	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	hda, err := herald.NewHDA("replay-drill", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 512, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	hdas := []*herald.HDA{hda, hda, hda}

	// Gate 2 baseline: the smooth control run (steady tenant alone).
	control, _ := mustReplay(cache, hdas, load(dir, "control"), herald.ReplayOptions{
		Fleet: fleetOptions(), Window: window,
	})
	controlP99 := steadyP99(control)
	if controlP99 <= 0 {
		log.Fatal("FAIL control: steady tenant has no p99 reading")
	}
	log.Printf("control: steady p99 %d cycles", controlP99)

	// The fault schedule every hostile trace also replays under,
	// scaled to the scenario horizon: a stall, an admission-failure
	// burst, a crash with work queued, a recovery.
	h := int64(12_000_000)
	plan, err := herald.ParseFaultPlan(fmt.Sprintf(
		"%d:1:stall:4,%d:2:admit-fail:3,%d:1:crash,%d:1:recover",
		h/5, 2*h/5, h/2, 4*h/5))
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range hostile {
		tr := load(dir, name)

		// Fault-free: deterministic, conserving, bounded.
		d1, b1 := mustReplay(cache, hdas, tr, herald.ReplayOptions{Fleet: fleetOptions(), Window: window})
		_, b2 := mustReplay(cache, hdas, tr, herald.ReplayOptions{Fleet: fleetOptions(), Window: window})
		if !bytes.Equal(b1, b2) {
			log.Fatalf("FAIL %s: two fault-free replays rendered different digests:\n%s", name, diff(b1, b2))
		}
		assertConservation(name, d1)
		assertEnvelope(name, d1, controlP99)

		// Faulted: deterministic down to the decision log, conserving,
		// bounded.
		fo := func() herald.ReplayOptions {
			o := herald.ReplayOptions{Fleet: fleetOptions(), Window: window}
			o.Fleet.Faults = plan
			return o
		}
		f1, fb1 := mustReplay(cache, hdas, tr, fo())
		f2, fb2 := mustReplay(cache, hdas, tr, fo())
		if !bytes.Equal(fb1, fb2) {
			log.Fatalf("FAIL %s+faults: two faulted replays rendered different digests:\n%s", name, diff(fb1, fb2))
		}
		if !reflect.DeepEqual(f1.FaultDecisions, f2.FaultDecisions) {
			log.Fatalf("FAIL %s+faults: fault-handling decision logs diverge", name)
		}
		if len(f1.FaultDecisions) == 0 {
			log.Fatalf("FAIL %s+faults: fault plan fired no decisions", name)
		}
		assertConservation(name+"+faults", f1)
		assertEnvelope(name+"+faults", f1, controlP99)
		log.Printf("%s: ok (fault-free %d completed; faulted %d completed, %d failovers, %d decisions, steady p99 %dx control)",
			name, d1.Counters.Completed, f1.Counters.Completed, f1.Counters.Failovers,
			len(f1.FaultDecisions), (steadyP99(f1)+controlP99-1)/controlP99)
	}

	// Gate on the repartitioning path too: a windowed flip-flop replay
	// with a live controller reaches the same decisions and digest
	// twice.
	ro := func() herald.ReplayOptions {
		o := herald.ReplayOptions{Fleet: fleetOptions(), Window: window}
		sw, err := herald.NewSweeper(cache, herald.SearchSpace{
			Class: herald.Edge, Styles: herald.MaelstromStyles(), PEUnits: 4, BWUnits: 2,
		}, sweepOptions())
		if err != nil {
			log.Fatal(err)
		}
		o.Fleet.Sweeper = sw
		o.Fleet.MixHalfLife = 64
		o.Elastic = &herald.ElasticOptions{NoReassign: true, EscalateThreshold: 0.02, EscalateAfter: 2, Cooldown: 2}
		return o
	}
	tr := load(dir, "flipflop")
	r1, rb1 := mustReplay(cache, hdas, tr, ro())
	_, rb2 := mustReplay(cache, hdas, tr, ro())
	if !bytes.Equal(rb1, rb2) {
		log.Fatalf("FAIL flipflop+repartition: digests diverge:\n%s", diff(rb1, rb2))
	}
	if len(r1.ElasticDecisions) == 0 {
		log.Fatal("FAIL flipflop+repartition: controller never stepped")
	}
	assertConservation("flipflop+repartition", r1)
	log.Printf("flipflop+repartition: ok (%d controller steps, final generation %d)",
		len(r1.ElasticDecisions), r1.Counters.Generation)

	log.Printf("replay drill PASS")
}

// checkCorpus regenerates one committed spec and byte-compares the
// rendered trace against the committed one.
func checkCorpus(dir, name string) error {
	sf, err := os.Open(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	defer sf.Close()
	spec, err := herald.ParseScenarioSpec(sf)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	entries, err := herald.GenerateScenario(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var got strings.Builder
	if err := herald.WriteTrace(&got, spec.Note(), entries); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	want, err := os.ReadFile(filepath.Join(dir, name+".trace.jsonl"))
	if err != nil {
		return err
	}
	if got.String() != string(want) {
		return fmt.Errorf("%s: regenerated trace differs from the committed one (regenerate with heraldplay -gen and commit, or fix the generator)", name)
	}
	return nil
}

func fleetOptions() herald.FleetOptions {
	o := herald.DefaultFleetOptions()
	o.Serve.MaxQueue = 4096
	return o
}

func sweepOptions() herald.SearchOptions {
	o := herald.DefaultSearchOptions()
	o.Objective = herald.ObjectiveEDP
	o.BestOnly = true
	o.Prune = true
	return o
}

func load(dir, name string) *herald.Trace {
	f, err := os.Open(filepath.Join(dir, name+".trace.jsonl"))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := herald.ReadTrace(f)
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func mustReplay(cache *herald.CostCache, hdas []*herald.HDA, tr *herald.Trace, o herald.ReplayOptions) (*herald.ReplayDigest, []byte) {
	d, err := herald.Replay(context.Background(), cache, hdas, tr, o)
	if err != nil {
		log.Fatal(err)
	}
	b, err := d.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	return d, b
}

func assertConservation(name string, d *herald.ReplayDigest) {
	if !d.Conservation.Holds {
		log.Fatalf("FAIL %s: conservation violated: %+v", name, d.Conservation)
	}
}

func assertEnvelope(name string, d *herald.ReplayDigest, controlP99 int64) {
	p99 := steadyP99(d)
	if p99 <= 0 {
		log.Fatalf("FAIL %s: steady tenant has no p99 reading", name)
	}
	if p99 > p99Envelope*controlP99 {
		log.Fatalf("FAIL %s: steady p99 %d cycles breaches the envelope (%dx control %d)",
			name, p99, p99Envelope, controlP99)
	}
}

func steadyP99(d *herald.ReplayDigest) int64 {
	for _, t := range d.Tenants {
		if t.Tenant == "steady" {
			return t.P99LatencyCycles
		}
	}
	return 0
}

func diff(a, b []byte) string {
	lines, err := herald.DiffDigests(a, b)
	if err != nil {
		return err.Error()
	}
	if len(lines) > 20 {
		lines = lines[:20]
	}
	return strings.Join(lines, "\n")
}
