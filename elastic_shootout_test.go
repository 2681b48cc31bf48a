package herald

// The elastic-vs-migration controller shoot-out: every committed
// scenario replays under both presets of the fleet controller — the
// migration-only ladder (reassign rung off: re-sweep + full generation
// migration) and the elastic ladder (intra-HDA PE reassignment at
// layer boundaries, migration only on persistent unreachable drift) —
// and the deterministic replay digest adjudicates. Each arm must render byte-identical digests
// across two runs and conserve every request; the flip-flop scenario
// must show the headline result: the elastic controller serves the
// alternating mix with cheap reassignments (zero full migrations)
// while the migration controller's hysteresis holds, at a steady-tenant
// p99 no worse than the migration arm's. The comparison table is
// pinned in testdata/elastic_shootout.golden (regenerate with
// UPDATE_SHOOTOUT=1 go test -run ElasticVsMigrationShootout).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shootoutWindow paces both arms identically: the controllers step at
// every 16-entry quiesce boundary.
const shootoutWindow = 16

func shootoutHDAs(t *testing.T) []*HDA {
	t.Helper()
	hda, err := NewHDA("shootout", Edge, []Partition{
		{Style: NVDLA, PEs: 512, BWGBps: 8},
		{Style: ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*HDA{hda, hda, hda}
}

// shootoutFleet mirrors the replay drill's fleet: a sweeper over the
// Edge 4/2 space (both arms get one — the migration-only preset needs
// it to act, the elastic preset only for migration) and an EWMA
// mix short enough to track the flip-flop alternation.
func shootoutFleet(t *testing.T, cache *CostCache) FleetOptions {
	t.Helper()
	so := DefaultSearchOptions()
	so.Objective = ObjectiveEDP
	so.BestOnly = true
	so.Prune = true
	sw, err := NewSweeper(cache, SearchSpace{
		Class: Edge, Styles: MaelstromStyles(), PEUnits: 4, BWUnits: 2,
	}, so)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultFleetOptions()
	o.Serve.MaxQueue = 4096
	o.Sweeper = sw
	o.MixHalfLife = 64
	return o
}

func TestElasticVsMigrationShootout(t *testing.T) {
	dir := filepath.Join("testdata", "scenarios")
	cache := NewCostCache(DefaultEnergyTable())
	hdas := shootoutHDAs(t)

	migration := func() ReplayOptions {
		return ReplayOptions{
			Fleet:  shootoutFleet(t, cache),
			Window: shootoutWindow,
			// The migration-only preset at its stock settings: 5%
			// threshold, 2-step confirmation, 3-step cooldown.
			Elastic: &ElasticOptions{NoReassign: true, EscalateThreshold: 0.05, EscalateAfter: 2, Cooldown: 3},
		}
	}
	elastic := func() ReplayOptions {
		return ReplayOptions{
			Fleet:  shootoutFleet(t, cache),
			Window: shootoutWindow,
			// PEQuantum 256 puts the mobilenet-optimal 768/256 split one
			// reassignment from the even start, mirroring the sweep space
			// the migration arm searches.
			Elastic: &ElasticOptions{PEQuantum: 256},
		}
	}

	// runTwice replays one arm twice and gates on the offline-A/B
	// contract: byte-identical digests (identical decisions included)
	// and conservation.
	runTwice := func(name, arm string, tr *Trace, mk func() ReplayOptions) *ReplayDigest {
		t.Helper()
		d1, err := Replay(context.Background(), cache, hdas, tr, mk())
		if err != nil {
			t.Fatalf("%s/%s: %v", name, arm, err)
		}
		b1, err := d1.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Replay(context.Background(), cache, hdas, tr, mk())
		if err != nil {
			t.Fatalf("%s/%s (second run): %v", name, arm, err)
		}
		b2, err := d2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			lines, _ := DiffDigests(b1, b2)
			if len(lines) > 20 {
				lines = lines[:20]
			}
			t.Fatalf("%s/%s: two replays rendered different digests:\n%s", name, arm, strings.Join(lines, "\n"))
		}
		if !d1.Conservation.Holds {
			t.Fatalf("%s/%s: conservation violated: %+v", name, arm, d1.Conservation)
		}
		return d1
	}

	steadyP99 := func(d *ReplayDigest) int64 {
		for _, ts := range d.Tenants {
			if ts.Tenant == "steady" {
				return ts.P99LatencyCycles
			}
		}
		return 0
	}

	var table strings.Builder
	fmt.Fprintf(&table, "# Elastic vs migration controller over the committed scenario corpus\n")
	fmt.Fprintf(&table, "# window=%d; both arms byte-deterministic across two runs, conservation holds\n", shootoutWindow)
	fmt.Fprintf(&table, "%-12s %-10s %9s %11s %10s %8s %11s\n",
		"scenario", "arm", "completed", "migrations", "reassigns", "preempt", "steady-p99")
	for _, name := range corpusSpecs(t) {
		f, err := os.Open(filepath.Join(dir, name+".trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}

		mig := runTwice(name, "migration", tr, migration)
		ela := runTwice(name, "elastic", tr, elastic)
		fmt.Fprintf(&table, "%-12s %-10s %9d %11d %10d %8d %11d\n", name, "migration",
			mig.Counters.Completed, mig.Counters.Migrations, mig.Counters.PEReassigns,
			mig.Counters.Preemptions, steadyP99(mig))
		fmt.Fprintf(&table, "%-12s %-10s %9d %11d %10d %8d %11d\n", name, "elastic",
			ela.Counters.Completed, ela.Counters.Migrations, ela.Counters.PEReassigns,
			ela.Counters.Preemptions, steadyP99(ela))

		if ela.Counters.Migrations != 0 {
			t.Errorf("%s: elastic arm escalated to %d migrations", name, ela.Counters.Migrations)
		}
		if name == "flipflop" {
			// The headline acceptance: the alternating mix is served by
			// cheap in-place reassignments while the migration
			// controller's hysteresis holds the fleet still — at a
			// steady-tenant p99 no worse than the migration arm's.
			if ela.Counters.PEReassigns < 1 {
				t.Errorf("flipflop: elastic controller never reassigned (digest %+v)", ela.Counters)
			}
			if mig.Counters.Migrations != 0 {
				t.Errorf("flipflop: migration controller migrated %d times (expected hysteresis hold)", mig.Counters.Migrations)
			}
			if ep, mp := steadyP99(ela), steadyP99(mig); ep <= 0 || ep > mp {
				t.Errorf("flipflop: elastic steady p99 %d worse than migration arm's %d", ep, mp)
			}
		}
	}

	goldenPath := filepath.Join("testdata", "elastic_shootout.golden")
	if os.Getenv("UPDATE_SHOOTOUT") != "" {
		if err := os.WriteFile(goldenPath, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_SHOOTOUT=1)", err)
	}
	if got := table.String(); got != string(want) {
		t.Errorf("comparison table drifted from %s (regenerate with UPDATE_SHOOTOUT=1):\ngot:\n%swant:\n%s",
			goldenPath, got, want)
	}
}
