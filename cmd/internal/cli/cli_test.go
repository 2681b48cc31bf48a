package cli

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	herald "repro"
)

func TestParsePartition(t *testing.T) {
	parts, err := ParsePartition("nvdla:512:8, shi-diannao:512:8")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].PEs != 512 || parts[1].BWGBps != 8 {
		t.Errorf("parts = %+v", parts)
	}
	for _, bad := range []string{"nvdla:512", "tpu:512:8", "nvdla:x:8", "nvdla:512:y"} {
		if _, err := ParsePartition(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// TestControllerFlags: each flag keeps its default and maps onto the
// matching preset of the one controller; the presets are mutually
// exclusive and need a stepping period.
func TestControllerFlags(t *testing.T) {
	parse := func(args ...string) (*herald.ElasticOptions, error) {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		c := RegisterControllerFlags(fs, "at every full-window boundary", "-window > 0")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return c.Options(true)
	}

	if o, err := parse(); o != nil || err != nil {
		t.Fatalf("no preset selected: %+v %v", o, err)
	}
	o, err := parse("-repartition")
	if err != nil {
		t.Fatal(err)
	}
	want := herald.ElasticOptions{NoReassign: true, EscalateThreshold: 0.05, EscalateAfter: 2, Cooldown: 3}
	if !reflect.DeepEqual(*o, want) {
		t.Fatalf("-repartition defaults: %+v, want %+v", *o, want)
	}
	o, err = parse("-repartition", "-repartition-threshold", "0", "-repartition-cooldown", "0")
	if err != nil {
		t.Fatal(err)
	}
	if o.EscalateThreshold != 1e-12 || o.Cooldown != 0 {
		t.Fatalf("explicit zeros: %+v, want any-improvement threshold and no cooldown", *o)
	}
	o, err = parse("-elastic", "-elastic-quantum", "256", "-elastic-preempt-below", "2")
	if err != nil {
		t.Fatal(err)
	}
	want = herald.ElasticOptions{ReassignThreshold: 0.02, PEQuantum: 256, EscalateAfter: 3,
		EscalateThreshold: 0.10, PreemptBelow: 2, PreemptMax: 2}
	if !reflect.DeepEqual(*o, want) {
		t.Fatalf("-elastic: %+v, want %+v", *o, want)
	}

	for _, bad := range [][]string{
		{"-repartition", "-elastic"},
		{"-repartition", "-repartition-confirm", "0"},
		{"-repartition", "-repartition-cooldown", "-1"},
		{"-elastic", "-elastic-escalate-after", "0"},
		{"-elastic", "-elastic-preempt-max", "0"},
	} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterControllerFlags(fs, "every -resweep-every period", "-resweep-every > 0")
	if err := fs.Parse([]string{"-elastic"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Options(false); err == nil || !strings.Contains(err.Error(), "-resweep-every > 0") {
		t.Errorf("controller without a period: %v", err)
	}
}
