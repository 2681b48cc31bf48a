package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	herald "repro"
	"repro/cmd/internal/cli"
)

func TestBootstrapWorkload(t *testing.T) {
	cases := map[string]int{"arvr-a": 10, "ARVR-B": 12, "mlperf": 5}
	for name, want := range cases {
		w, err := bootstrapWorkload(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.NumInstances() != want {
			t.Errorf("%s: %d instances, want %d", name, w.NumInstances(), want)
		}
	}
	if _, err := bootstrapWorkload("nope"); err == nil {
		t.Error("unknown bootstrap workload accepted")
	}
}

// TestBootstrapSearch runs the deploy-time DSE at coarse granularity
// and checks the best point is a servable HDA for the class.
func TestBootstrapSearch(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	res, objective, err := bootstrapSearch(cache, herald.Edge, "nvdla,shi-diannao", 4, 2, "exhaustive", "latency", "arvr-a")
	if err != nil {
		t.Fatal(err)
	}
	if objective != herald.ObjectiveLatency {
		t.Errorf("objective %v, want latency", objective)
	}
	hda := res.Best.HDA
	if hda.NumSubs() != 2 || hda.Class.Name != "edge" {
		t.Fatalf("bootstrap HDA %v", hda)
	}
	for _, bad := range [][3]string{
		{"exhaustive", "edp", "nope"},
		{"nope", "edp", "arvr-a"},
		{"exhaustive", "nope", "arvr-a"},
		{"exhaustive", "edp", "arvr-a"},
	} {
		strategy, objective, wl := bad[0], bad[1], bad[2]
		if strategy == "exhaustive" && objective == "edp" && wl == "arvr-a" {
			continue // the valid combination
		}
		if _, _, err := bootstrapSearch(cache, herald.Edge, "nvdla,shi-diannao", 4, 2, strategy, objective, wl); err == nil {
			t.Errorf("bootstrapSearch(%s,%s,%s) accepted", strategy, objective, wl)
		}
	}
	if _, _, err := bootstrapSearch(cache, herald.Edge, "nvdla,warp", 4, 2, "exhaustive", "edp", "arvr-a"); err == nil {
		t.Error("bad style accepted")
	}
}

// TestResweepProbe: the -resweep-every machinery end to end — a fleet
// of one with the flag-built sweeper reports "no traffic" before any
// request, and after serving a mixed load the probe names the
// partition the observed mix would pick.
func TestResweepProbe(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	sw, err := cli.Sweeper(cache, herald.Edge, "nvdla,shi-diannao", 4, 2, "exhaustive", "edp")
	if err != nil {
		t.Fatal(err)
	}
	hda, err := herald.NewHDA("probe", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 512, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := herald.DefaultFleetOptions()
	opts.Sweeper = sw
	fl, err := herald.NewReplicatedFleet(cache, hda, 1, opts)
	if err != nil {
		t.Fatal(err)
	}

	if line := resweepProbe(fl); !strings.Contains(line, "no traffic") {
		t.Errorf("probe before traffic: %q", line)
	}

	for _, model := range []string{"mobilenetv1", "mobilenetv1", "resnet50"} {
		tk, err := fl.Submit(herald.InferenceRequest{Tenant: "t", Model: model, ArrivalCycle: 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	line := resweepProbe(fl)
	if !strings.Contains(line, "would pick") || !strings.Contains(line, "evaluated") {
		t.Errorf("probe after traffic: %q", line)
	}
	if _, err := fl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The flag parsers behind the sweeper must keep rejecting garbage.
	if _, err := cli.Sweeper(cache, herald.Edge, "warp", 4, 2, "exhaustive", "edp"); err == nil {
		t.Error("bad style accepted")
	}
	if _, err := cli.Sweeper(cache, herald.Edge, "nvdla,shi-diannao", 4, 2, "nope", "edp"); err == nil {
		t.Error("bad strategy accepted")
	}
	if _, err := cli.Sweeper(cache, herald.Edge, "nvdla,shi-diannao", 4, 2, "exhaustive", "nope"); err == nil {
		t.Error("bad objective accepted")
	}
}

// TestRepartitionController: the -repartition wiring end to end — a
// fleet with the flag-built sweeper and the flag-built migration-only
// controller, serving a partition the live traffic disagrees with,
// migrates to the traffic's winner on one controller step and keeps
// serving.
func TestRepartitionController(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	sw, err := cli.Sweeper(cache, herald.Edge, "nvdla,shi-diannao", 4, 2, "exhaustive", "edp")
	if err != nil {
		t.Fatal(err)
	}
	// Serve the mobilenet-optimal NVDLA-heavy split while the live
	// traffic is all unet (which wants a different partition).
	hda, err := herald.NewHDA("boot", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 768, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 256, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := herald.DefaultFleetOptions()
	opts.Sweeper = sw
	fl, err := herald.NewReplicatedFleet(cache, hda, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("heraldd", flag.ContinueOnError)
	ctrlFlags := cli.RegisterControllerFlags(fs, "every -resweep-every period", "-resweep-every > 0")
	if err := fs.Parse([]string{"-repartition", "-repartition-confirm", "1", "-repartition-cooldown", "2"}); err != nil {
		t.Fatal(err)
	}
	ctrlOpts, err := ctrlFlags.Options(true)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := herald.NewElasticController(fl, *ctrlOpts)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		tk, err := fl.Submit(herald.InferenceRequest{Tenant: "arvr", Model: "unet", ArrivalCycle: 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	d, err := ctrl.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != herald.ElasticMigrated || fl.Generation() != 1 {
		t.Fatalf("controller step: %+v (generation %d)", d, fl.Generation())
	}
	if !strings.Contains(d.String(), "MIGRATED") {
		t.Errorf("decision log line %q", d)
	}
	// The migrated fleet still serves.
	tk, err := fl.Submit(herald.InferenceRequest{Tenant: "arvr", Model: "unet", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := tk.Wait(context.Background()); err != nil || rec.Status != herald.StatusDone {
		t.Fatalf("post-migration request: %+v %v", rec, err)
	}
	st, err := fl.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 5 || st.Migrations != 1 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestTopKHDAs: heterogeneous fleets take their substrates from the
// bootstrap search's top-K points, cycling when the cloud is small.
func TestTopKHDAs(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	res, objective, err := bootstrapSearch(cache, herald.Edge, "nvdla,shi-diannao", 4, 2, "exhaustive", "latency", "arvr-a")
	if err != nil {
		t.Fatal(err)
	}
	hdas := topKHDAs(res, objective, 3)
	if len(hdas) != 3 {
		t.Fatalf("%d HDAs, want 3", len(hdas))
	}
	if hdas[0] != res.Best.HDA {
		t.Errorf("replica 0 should serve the best point, got %v", hdas[0])
	}
	if hdas[0] == hdas[1] {
		t.Errorf("top-K fleet is homogeneous: %v", hdas)
	}
	// A fleet larger than the design cloud cycles through the top-K.
	many := topKHDAs(res, objective, len(res.Points)+2)
	if many[len(res.Points)] != many[0] {
		t.Error("oversized fleet does not cycle through the cloud")
	}

	// repeatHDA builds the homogeneous list.
	rep := repeatHDA(res.Best.HDA, 4)
	if len(rep) != 4 || rep[0] != rep[3] || rep[0] != res.Best.HDA {
		t.Errorf("repeatHDA: %v", rep)
	}
}

// TestCaptureReplayRoundTrip: the -capture wiring end to end through
// the HTTP surface — a fleet records its accepted submissions through
// OnAccept exactly as main() wires it, traffic flows through POST
// /v1/requests and /v1/drain, and the captured trace replays under
// cmd/heraldplay's engine (herald.Replay) to the live run's counters,
// twice, byte-identically.
func TestCaptureReplayRoundTrip(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	hda, err := herald.NewHDA("cap", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 512, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rec, err := herald.NewTraceRecorder(&buf, "heraldd capture")
	if err != nil {
		t.Fatal(err)
	}
	opts := herald.DefaultFleetOptions()
	opts.OnAccept = func(req herald.InferenceRequest, plan string) {
		_ = rec.Record(herald.TraceEntry{
			Tenant: req.Tenant, Model: req.Model, ArrivalCycle: req.ArrivalCycle,
			SLACycles: req.SLACycles, Priority: req.Priority, Plan: plan,
		})
	}
	fl, err := herald.NewReplicatedFleet(cache, hda, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fl.Handler())
	defer srv.Close()

	// Live traffic with explicit arrival cycles (what a replayable
	// client sends) through the public endpoint.
	reqs := []string{
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":1000,"sla_cycles":90000000,"wait":true}`,
		`{"tenant":"b","model":"brq-handpose","arrival_cycle":2000,"wait":true}`,
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":250000,"priority":1,"wait":true}`,
		`{"tenant":"c","model":"no-such-model","arrival_cycle":3000}`, // rejected: must NOT be captured
		`{"tenant":"b","model":"resnet50","arrival_cycle":500000,"wait":true}`,
	}
	for i, body := range reqs {
		resp, err := http.Post(srv.URL+"/v1/requests", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if i == 3 {
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad-model submission: status %d", resp.StatusCode)
			}
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var live struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 4 {
		t.Fatalf("captured %d entries, want 4 (the rejected submission must not be recorded)", rec.Count())
	}

	tr, err := herald.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 4 {
		t.Fatalf("trace holds %d entries, want 4", len(tr.Entries))
	}
	if e := tr.Entries[0]; e.Tenant != "a" || e.SLACycles != 90000000 {
		t.Fatalf("entry 0 lost fields: %+v", e)
	}
	if e := tr.Entries[2]; e.Priority != 1 {
		t.Fatalf("entry 2 lost priority: %+v", e)
	}

	// Replay the capture twice against the same config: byte-identical
	// digests, counters matching the live run.
	run := func() ([]byte, *herald.ReplayDigest) {
		d, err := herald.Replay(context.Background(), cache, []*herald.HDA{hda, hda}, tr,
			herald.ReplayOptions{Fleet: herald.DefaultFleetOptions()})
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return b, d
	}
	b1, d1 := run()
	b2, _ := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("replaying the captured trace twice produced different digests")
	}
	if !d1.Conservation.Holds {
		t.Fatalf("replay conservation violated: %+v", d1.Conservation)
	}
	if d1.Counters.Submitted != live.Submitted || d1.Counters.Completed != live.Completed {
		t.Fatalf("replay counters (%d submitted, %d completed) diverge from the live run (%d, %d)",
			d1.Counters.Submitted, d1.Counters.Completed, live.Submitted, live.Completed)
	}
}
