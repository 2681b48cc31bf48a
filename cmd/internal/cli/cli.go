// Package cli holds the flag parsing and builders that heraldd and
// heraldplay share, so a trace captured by the daemon replays under
// exactly the meaning its flags had when it was served.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	herald "repro"
)

// ParsePartition parses the -partition syntax "style:pes:bw,...".
func ParsePartition(s string) ([]herald.Partition, error) {
	var parts []herald.Partition
	for _, item := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(item), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("partition %q: want style:pes:bw", item)
		}
		st, err := herald.ParseStyle(fields[0])
		if err != nil {
			return nil, err
		}
		pes, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("partition %q: bad PEs: %v", item, err)
		}
		bw, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("partition %q: bad bandwidth: %v", item, err)
		}
		parts = append(parts, herald.Partition{Style: st, PEs: pes, BWGBps: bw})
	}
	return parts, nil
}

// ParseStyles parses a comma-separated -styles list.
func ParseStyles(csv string) ([]herald.Style, error) {
	var styles []herald.Style
	for _, s := range strings.Split(csv, ",") {
		st, err := herald.ParseStyle(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		styles = append(styles, st)
	}
	return styles, nil
}

// SearchOptions resolves the -strategy and -objective flags.
func SearchOptions(strategy, objective string) (herald.SearchOptions, error) {
	opts := herald.DefaultSearchOptions()
	switch strategy {
	case "exhaustive":
		opts.Strategy = herald.Exhaustive
	case "binary":
		opts.Strategy = herald.Binary
	case "random":
		opts.Strategy = herald.Random
	default:
		return opts, fmt.Errorf("unknown strategy %q (want exhaustive, binary, random)", strategy)
	}
	switch objective {
	case "edp":
		opts.Objective = herald.ObjectiveEDP
	case "latency":
		opts.Objective = herald.ObjectiveLatency
	case "energy":
		opts.Objective = herald.ObjectiveEnergy
	default:
		return opts, fmt.Errorf("unknown objective %q (want edp, latency, energy)", objective)
	}
	return opts, nil
}

// Sweeper builds the reusable partition-search handle a fleet probes
// with (Fleet.Resweep and the controller's migrate rung), in pruned
// best-only mode: a probe only needs the winner.
func Sweeper(cache *herald.CostCache, class herald.Class, stylesCSV string, peUnits, bwUnits int, strategy, objective string) (*herald.Sweeper, error) {
	styles, err := ParseStyles(stylesCSV)
	if err != nil {
		return nil, err
	}
	opts, err := SearchOptions(strategy, objective)
	if err != nil {
		return nil, err
	}
	opts.BestOnly = true
	opts.Prune = true
	sp := herald.SearchSpace{Class: class, Styles: styles, PEUnits: peUnits, BWUnits: bwUnits}
	return herald.NewSweeper(cache, sp, opts)
}

// FusionPlans computes the winning segment chain of every zoo model
// that splits on the serving HDA; models whose best plan is a single
// segment stay unfused and are left out of the map. logf, when set,
// receives one line per split model.
func FusionPlans(cache *herald.CostCache, hda *herald.HDA, objective herald.SearchObjective, maxSegments int, logf func(string, ...any)) (map[string]herald.SegmentPlan, error) {
	plans := make(map[string]herald.SegmentPlan)
	for _, name := range herald.ModelNames() {
		m, err := herald.ModelByName(name)
		if err != nil {
			return nil, err
		}
		p, err := herald.PlanSegments(cache, hda, m, objective, maxSegments)
		if err != nil {
			return nil, err
		}
		if p.NumSegments() > 1 {
			plans[name] = p
			if logf != nil {
				logf("  fusion plan %s: %d segments (period %d cycles, chain %d cycles)",
					name, p.NumSegments(), p.PeriodCycles, p.ChainCycles)
			}
		}
	}
	return plans, nil
}

// ControllerFlags are the fleet-controller flags. -repartition and
// -elastic select the two presets of the one controller (see
// herald.ElasticOptions); the other flags tune the selected preset.
type ControllerFlags struct {
	Repartition          bool
	RepartitionThreshold float64
	RepartitionConfirm   int
	RepartitionCooldown  int

	Elastic                  bool
	ElasticThreshold         float64
	ElasticQuantum           int
	ElasticEscalateAfter     int
	ElasticEscalateThreshold float64
	ElasticPreemptBelow      int
	ElasticPreemptMax        int

	period string // the flag setting that enables stepping, e.g. "-window > 0"
}

// RegisterControllerFlags declares the controller flags on fs. step
// says when the controller steps ("every -resweep-every period");
// period names the setting that enables stepping ("-resweep-every > 0").
func RegisterControllerFlags(fs *flag.FlagSet, step, period string) *ControllerFlags {
	c := &ControllerFlags{period: period}
	fs.BoolVar(&c.Repartition, "repartition", false, fmt.Sprintf("migration-only controller, stepped %s: live-migrate the fleet to the resweep winner (requires %s; mutually exclusive with -elastic)", step, period))
	fs.Float64Var(&c.RepartitionThreshold, "repartition-threshold", 0.05, "minimum fractional objective improvement before migrating (0.05 = winner must be 5% better; 0 = any improvement)")
	fs.IntVar(&c.RepartitionConfirm, "repartition-confirm", 2, "consecutive probes that must agree on the winner before migrating (hysteresis, >= 1)")
	fs.IntVar(&c.RepartitionCooldown, "repartition-cooldown", 3, "observation-only probes after each migration (anti-flap; 0 = none)")
	fs.BoolVar(&c.Elastic, "elastic", false, fmt.Sprintf("elastic controller, stepped %s: re-slice PEs between sub-accelerators at layer boundaries instead of migrating, migrating only on persistent unreachable drift (requires %s; mutually exclusive with -repartition)", step, period))
	fs.Float64Var(&c.ElasticThreshold, "elastic-threshold", 0.02, "minimum fractional objective improvement before a PE reassignment (0 = any improvement)")
	fs.IntVar(&c.ElasticQuantum, "elastic-quantum", 0, "PEs one reassignment moves between two sub-accelerators (0 = class PEs / 16)")
	fs.IntVar(&c.ElasticEscalateAfter, "elastic-escalate-after", 3, "consecutive unreachable-drift holds before the elastic controller escalates to a full migration")
	fs.Float64Var(&c.ElasticEscalateThreshold, "elastic-escalate-threshold", 0.10, "minimum sustained sweep-winner improvement that counts as unreachable drift")
	fs.IntVar(&c.ElasticPreemptBelow, "elastic-preempt-below", 0, "SLA-risk trigger: preempt requests with priority strictly below this when new violations appear (0 = off)")
	fs.IntVar(&c.ElasticPreemptMax, "elastic-preempt-max", 2, "preemptions per replica per elastic step")
	return c
}

// Options validates the flags and maps the selected preset onto
// controller options; nil when neither -repartition nor -elastic is
// set. stepping reports whether the period setting is on.
func (c *ControllerFlags) Options(stepping bool) (*herald.ElasticOptions, error) {
	switch {
	case c.Repartition && c.Elastic:
		return nil, fmt.Errorf("-elastic and -repartition are mutually exclusive (they are two presets of one controller)")
	case c.RepartitionConfirm < 1 || c.RepartitionCooldown < 0:
		return nil, fmt.Errorf("-repartition-confirm must be >= 1 and -repartition-cooldown >= 0 (got %d, %d)",
			c.RepartitionConfirm, c.RepartitionCooldown)
	case c.ElasticEscalateAfter < 1:
		return nil, fmt.Errorf("-elastic-escalate-after must be >= 1 (got %d)", c.ElasticEscalateAfter)
	case c.ElasticPreemptBelow < 0 || c.ElasticPreemptMax < 1:
		return nil, fmt.Errorf("-elastic-preempt-below must be >= 0 and -elastic-preempt-max >= 1 (got %d, %d)",
			c.ElasticPreemptBelow, c.ElasticPreemptMax)
	case !c.Repartition && !c.Elastic:
		return nil, nil
	case !stepping:
		return nil, fmt.Errorf("-repartition and -elastic need %s (the controller steps once per period)", c.period)
	}
	// The library treats a 0 threshold as "default"; at the flag level
	// an explicit 0 means "any improvement".
	anyGain := func(v float64) float64 {
		if v == 0 {
			return 1e-12
		}
		return v
	}
	if c.Repartition {
		return &herald.ElasticOptions{
			NoReassign:        true,
			EscalateThreshold: anyGain(c.RepartitionThreshold),
			EscalateAfter:     c.RepartitionConfirm,
			Cooldown:          c.RepartitionCooldown,
		}, nil
	}
	return &herald.ElasticOptions{
		ReassignThreshold: anyGain(c.ElasticThreshold),
		PEQuantum:         c.ElasticQuantum,
		EscalateAfter:     c.ElasticEscalateAfter,
		EscalateThreshold: c.ElasticEscalateThreshold,
		PreemptBelow:      c.ElasticPreemptBelow,
		PreemptMax:        c.ElasticPreemptMax,
	}, nil
}

// String describes the selected preset for the startup log.
func (c *ControllerFlags) String() string {
	if c.Repartition {
		return fmt.Sprintf("repartition controller (threshold %.3g, confirm %d, cooldown %d)",
			c.RepartitionThreshold, c.RepartitionConfirm, c.RepartitionCooldown)
	}
	return fmt.Sprintf("elastic controller (reassign threshold %.3g, escalate after %d at %.3g, preempt below %d max %d)",
		c.ElasticThreshold, c.ElasticEscalateAfter, c.ElasticEscalateThreshold,
		c.ElasticPreemptBelow, c.ElasticPreemptMax)
}
