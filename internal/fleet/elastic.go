package fleet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// ElasticAction is the outcome of one controller step.
type ElasticAction string

// Controller step outcomes.
const (
	// ElasticNoTraffic: no mix observed yet; nothing to evaluate.
	ElasticNoTraffic ElasticAction = "no-traffic"
	// ElasticHold: no rung acted. The decision's DriftStreak and
	// CooldownLeft say whether a migration is being confirmed or is
	// blocked by the post-migration cooldown.
	ElasticHold ElasticAction = "hold"
	// ElasticReassigned: every active replica's slices were re-sized
	// in place (cheap intra-HDA move, no generation change).
	ElasticReassigned ElasticAction = "reassigned"
	// ElasticPreempted: SLA risk triggered preemption of low-priority
	// work, but no reassignment was warranted this step.
	ElasticPreempted ElasticAction = "preempted"
	// ElasticMigrated: the sweep winner cleared the migrate rung's
	// threshold for EscalateAfter consecutive steps, so the fleet
	// live-migrated to it (a new generation).
	ElasticMigrated ElasticAction = "migrated"
)

// ElasticOptions tunes the controller's action ladder. The zero value
// is the elastic preset: reassign at 0.02, migrate at 0.10 after 3
// steps, no cooldown, no preemption. The migration-only preset is
// NoReassign with the migrate rung's knobs set (heraldd -repartition).
type ElasticOptions struct {
	// ReassignThreshold is the minimum fractional objective improvement
	// a neighbor partition (one PE quantum moved between two subs) must
	// offer over the serving partition to trigger a reassignment. 0
	// selects the default 0.02 — a reassignment is cheap: committed
	// layers finish untouched and no generation drains.
	ReassignThreshold float64

	// NoReassign turns the reassign rung off, leaving preempt →
	// migrate. The migrate rung then also acts on winners that
	// re-slicing could reach. Requires a fleet sweeper.
	NoReassign bool

	// PEQuantum is how many PEs one reassignment moves between two
	// sub-accelerators (bandwidth moves proportionally, keeping the
	// Definition 1 sums exact). 0 selects class PEs / 16 (min 1).
	PEQuantum int

	// EscalateThreshold is the minimum fractional improvement the
	// fleet sweeper's winner must offer over the best distinct active
	// partition to count as drift. 0 selects the default 0.10. With
	// the reassign rung on, only winners out of reach of re-slicing
	// (different sub count or styles) count.
	EscalateThreshold float64

	// EscalateAfter is how many consecutive steps must name the same
	// drifting winner before the controller migrates to it. 0 selects
	// the default 3. Migration requires the fleet to have a sweeper
	// (Options.Sweeper); without one the controller never migrates.
	EscalateAfter int

	// Cooldown is how many migrate-rung evaluations after a migration
	// are observation only: the winner is reported but never acted on
	// and builds no streak, which bounds the flap rate to one
	// migration per Cooldown+EscalateAfter steps. 0 means none.
	Cooldown int

	// PreemptBelow, when > 0, arms the SLA-risk trigger: a step that
	// observes new SLA violations since the previous step preempts up
	// to PreemptMax requests with priority strictly below PreemptBelow
	// on each replica (the engines must run with serve.Options.Elastic
	// set, or preemption is a no-op).
	PreemptBelow int

	// PreemptMax caps preemptions per replica per step. 0 selects the
	// default 2.
	PreemptMax int

	// Logf, when set, receives one line per step.
	Logf func(format string, args ...any)
}

func (o ElasticOptions) withDefaults() ElasticOptions {
	if o.ReassignThreshold == 0 {
		o.ReassignThreshold = 0.02
	}
	if o.EscalateAfter <= 0 {
		o.EscalateAfter = 3
	}
	if o.EscalateThreshold == 0 {
		o.EscalateThreshold = 0.10
	}
	if o.PreemptMax <= 0 {
		o.PreemptMax = 2
	}
	return o
}

// ElasticDecision records one controller step. The value fields carry
// no omitempty: 0 is a legitimate objective reading or counter, and a
// decision consumer must be able to distinguish it from an absent
// field.
type ElasticDecision struct {
	Step   int           `json:"step"`
	Action ElasticAction `json:"action"`
	// Generation is the fleet generation after the step (it changes
	// only on a migration).
	Generation int `json:"generation"`

	// Mix is the probed workload, empty under ElasticNoTraffic.
	Mix string `json:"mix,omitempty"`

	// Serving/Candidate describe the reassign rung's comparison: the
	// serving partition's objective value on the mix vs. the best
	// neighbor partition's (one PE quantum moved between two subs).
	// Candidate is empty when the rung is off.
	Serving        string  `json:"serving,omitempty"`
	Candidate      string  `json:"candidate,omitempty"`
	Objective      string  `json:"objective,omitempty"`
	ServingValue   float64 `json:"serving_value"`
	CandidateValue float64 `json:"candidate_value"`
	// Improvement is the candidate's fractional gain over the serving
	// partition ((serving-candidate)/serving).
	Improvement float64 `json:"improvement"`

	// Winner/WinnerValue are the migrate rung's sweep winner and its
	// objective value; Winner is empty when the rung did not run.
	Winner      string  `json:"winner,omitempty"`
	WinnerValue float64 `json:"winner_value"`

	// Reassigned counts replicas re-sliced this step; Preempted counts
	// requests preempted by the SLA-risk trigger this step.
	Reassigned int `json:"reassigned"`
	Preempted  int `json:"preempted"`

	// DriftStreak is how many consecutive steps have named the same
	// drifting winner; CooldownLeft is the post-migration cooldown
	// still to run. Both are the state after the step.
	DriftStreak  int `json:"drift_streak"`
	CooldownLeft int `json:"cooldown_left"`
}

// String renders the decision as a one-line log entry.
func (d ElasticDecision) String() string {
	switch d.Action {
	case ElasticNoTraffic:
		return fmt.Sprintf("elastic step %d: no traffic observed yet", d.Step)
	case ElasticReassigned:
		return fmt.Sprintf("elastic step %d: REASSIGNED %d replicas to %s: %s %.4g -> %.4g on %s (%+.1f%%; preempted %d)",
			d.Step, d.Reassigned, d.Candidate, d.Objective, d.ServingValue, d.CandidateValue, d.Mix,
			-100*d.Improvement, d.Preempted)
	case ElasticMigrated:
		return fmt.Sprintf("elastic step %d: MIGRATED to %s (gen %d): %s %.4g -> %.4g on %s (cooldown %d)",
			d.Step, d.Winner, d.Generation, d.Objective, d.ServingValue, d.WinnerValue, d.Mix, d.CooldownLeft)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "elastic step %d: %s: serving %s (%s %.4g on %s)", d.Step, d.Action, d.Serving, d.Objective, d.ServingValue, d.Mix)
	if d.Candidate != "" {
		fmt.Fprintf(&b, ", best neighbor %s %.4g (%+.1f%%)", d.Candidate, d.CandidateValue, 100*d.Improvement)
	}
	if d.Winner != "" {
		fmt.Fprintf(&b, ", winner %s %.4g", d.Winner, d.WinnerValue)
	}
	fmt.Fprintf(&b, "; preempted %d, drift %d, cooldown %d", d.Preempted, d.DriftStreak, d.CooldownLeft)
	return b.String()
}

// ElasticController is the fleet's one controller: the run-time repeat
// of Herald's partition/schedule co-optimization on the observed mix.
// Each Step climbs an action ladder and executes the cheapest
// sufficient action:
//
//	preempt  — SLA risk appeared: revoke low-priority placements;
//	reassign — a neighbor partition (one PE quantum moved between two
//	           subs) clears ReassignThreshold: re-slice every replica
//	           in place, no generation change;
//	migrate  — the sweeper's winner clears EscalateThreshold on
//	           EscalateAfter consecutive steps outside a cooldown:
//	           Fleet.Migrate to a new generation on it.
//
// Steps are serialized; Run drives Step on a ticker for daemon
// deployments, while tests and replay harnesses call Step at
// deterministic quiesce boundaries — the same trace with Steps at the
// same points yields the same decision sequence.
type ElasticController struct {
	f    *Fleet
	opts ElasticOptions
	obj  dse.Objective

	// stepMu serializes Step calls and guards the private scheduler (a
	// sched.Scheduler is single-goroutine). It is held across a
	// migration's drain, so the state fields are guarded separately and
	// Status stays responsive during exactly the window an operator
	// wants to watch.
	stepMu sync.Mutex
	s      *sched.Scheduler // guarded by stepMu

	// mu guards the published state below. Writes happen only inside
	// Step (under stepMu); Status readers may arrive concurrently.
	mu             sync.Mutex
	steps          int              // guarded by mu
	reassigns      int              // guarded by mu
	preempts       int              // guarded by mu
	migrations     int              // guarded by mu
	driftStreak    int              // guarded by mu
	pendingKey     string           // the winner the streak counts; guarded by mu
	cooldownLeft   int              // guarded by mu
	lastViolations int64            // guarded by mu
	last           *ElasticDecision // guarded by mu
}

// NewElasticController attaches the controller to a fleet; the fleet's
// GET /v1/fleet/repartition endpoint reports its Status. A sweeper is
// optional unless NoReassign is set: without one the controller
// reassigns and preempts but never migrates. It inherits the sweeper's
// objective and scheduler configuration (else EDP and the engines').
func NewElasticController(f *Fleet, opts ElasticOptions) (*ElasticController, error) {
	if f == nil {
		return nil, fmt.Errorf("fleet: controller needs a fleet")
	}
	if opts.ReassignThreshold < 0 || opts.EscalateThreshold < 0 || opts.Cooldown < 0 {
		return nil, fmt.Errorf("fleet: controller thresholds and cooldown must be >= 0")
	}
	if opts.NoReassign && f.sweeper == nil {
		return nil, fmt.Errorf("fleet: a controller without the reassign rung needs a fleet with a sweeper (set Options.Sweeper)")
	}
	if opts.PreemptBelow > 0 && !f.serveOpts.Elastic {
		return nil, fmt.Errorf("fleet: the SLA-risk preemption trigger needs elastic engines (set Options.Serve.Elastic)")
	}
	obj, schedOpts := dse.ObjectiveEDP, f.serveOpts.Sched
	if f.sweeper != nil {
		obj, schedOpts = f.sweeper.Options().Objective, f.sweeper.Options().Sched
	}
	schedOpts.Priorities = nil
	c := &ElasticController{
		f:    f,
		opts: opts.withDefaults(),
		obj:  obj,
		s:    sched.MustNew(f.cache, schedOpts),
	}
	f.ctrlMu.Lock()
	f.controller = c
	f.ctrlMu.Unlock()
	return c, nil
}

// ElasticStatus is a point-in-time controller snapshot (the
// GET /v1/fleet/repartition payload).
type ElasticStatus struct {
	Steps       int `json:"steps"`
	Reassigns   int `json:"reassigns"`
	Preemptions int `json:"preemptions"`
	Migrations  int `json:"migrations"`
	// DriftStreak and CooldownLeft carry no omitempty — 0 ("no drift",
	// "free to act") is the state a dashboard most wants to confirm.
	DriftStreak  int              `json:"drift_streak"`
	CooldownLeft int              `json:"cooldown_left"`
	Last         *ElasticDecision `json:"last,omitempty"`
}

// Status returns the controller's current state snapshot.
func (c *ElasticController) Status() ElasticStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ElasticStatus{
		Steps:        c.steps,
		Reassigns:    c.reassigns,
		Preemptions:  c.preempts,
		Migrations:   c.migrations,
		DriftStreak:  c.driftStreak,
		CooldownLeft: c.cooldownLeft,
	}
	if c.last != nil {
		d := *c.last
		st.Last = &d
	}
	return st
}

// Migrations returns how many migrations the controller has executed.
func (c *ElasticController) Migrations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations
}

// Step runs one control iteration up the ladder: SLA-risk preemption
// first, then the neighbor-partition evaluation, then — only when no
// reassignment was made — the migrate rung. Calling Step at
// deterministic points of a fixed submission trace yields a
// deterministic decision sequence.
//
// If ctx expires while a migration's retiring generation drains, the
// migration itself has still happened: the controller commits its
// post-migration state before reporting the interrupted drain as an
// error, so controller and fleet never desync.
func (c *ElasticController) Step(ctx context.Context) (ElasticDecision, error) {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()

	// State fields are written only here (under stepMu), so lock-free
	// reads are safe; every write goes through setState so Status's
	// locked reads are too.
	d := ElasticDecision{Step: c.steps, Objective: c.obj.String()} //herald:nolock single-writer read: steps is written only inside Step, and stepMu serializes Steps
	c.setState(func() { c.steps++ })
	d.Generation = c.f.Generation()

	// SLA-risk trigger: new violations since the last step preempt
	// low-priority placements, freeing committed future capacity for
	// the latency-critical tenants that are already missing targets.
	if c.opts.PreemptBelow > 0 {
		viol := c.totalViolations()
		prev := c.lastViolations //herald:nolock single-writer read under stepMu (see the state-fields comment above)
		c.setState(func() { c.lastViolations = viol })
		if viol > prev {
			d.Preempted = c.f.PreemptBelow(c.opts.PreemptBelow, c.opts.PreemptMax)
			c.setState(func() { c.preempts += d.Preempted })
		}
	}

	mix := c.f.ObservedMix("observed-mix")
	if mix == nil {
		d.Action = ElasticNoTraffic
		if d.Preempted > 0 {
			d.Action = ElasticPreempted
		}
		return c.finish(d), nil
	}
	d.Mix = mixString(mix)

	serving := c.f.ActiveHDAs()
	if len(serving) == 0 {
		return d, fmt.Errorf("fleet: no active replicas to evaluate")
	}
	cur := serving[0]
	d.Serving = cur.String()
	servingValue, err := c.evaluate(cur, mix)
	if err != nil {
		return d, err
	}
	d.ServingValue = servingValue

	if !c.opts.NoReassign {
		bestParts, bestValue, bestHDA, err := c.bestNeighbor(cur, mix)
		if err != nil {
			return d, err
		}
		d.CandidateValue = bestValue
		if bestHDA != nil {
			d.Candidate = bestHDA.String()
		}
		if servingValue > 0 && bestHDA != nil {
			d.Improvement = (servingValue - bestValue) / servingValue
		}
		if bestParts != nil && d.Improvement >= c.opts.ReassignThreshold {
			n, err := c.f.ReassignAll(bestParts)
			if err != nil {
				return d, fmt.Errorf("fleet: reassigning to %s: %w", d.Candidate, err)
			}
			d.Reassigned = n
			d.Action = ElasticReassigned
			c.setState(func() {
				c.reassigns++
				c.driftStreak, c.pendingKey = 0, ""
			})
			return c.finish(d), nil
		}
	}

	d.Action = ElasticHold
	if d.Preempted > 0 {
		d.Action = ElasticPreempted
	}
	if c.f.sweeper == nil {
		return c.finish(d), nil
	}
	return c.migrateRung(ctx, d, serving, servingValue, mix)
}

// migrateRung is the ladder's last rung: re-sweep the partition search
// on the mix, compare the winner against the best distinct active
// partition, and migrate once the same winner has cleared the
// threshold on EscalateAfter consecutive steps outside a cooldown.
// Step only: c.stepMu held; v0 is serving[0]'s objective value.
func (c *ElasticController) migrateRung(ctx context.Context, d ElasticDecision, serving []*accel.HDA, v0 float64, mix *workload.Workload) (ElasticDecision, error) {
	res, err := c.f.Resweep(mix)
	if err != nil {
		return d, err
	}
	winner := res.Best.HDA
	d.Winner = winner.String()
	d.WinnerValue = c.obj.Value(res.Best)
	baseHDA, base, err := c.baseline(serving, v0, mix)
	if err != nil {
		return d, err
	}

	// Cooldown: observe, report, never act — and build no streak, so
	// the cooldown and confirmation windows are strictly serial.
	if c.cooldownLeft > 0 { //herald:nolock single-writer read under stepMu (see Step)
		c.setState(func() {
			c.cooldownLeft--
			c.driftStreak, c.pendingKey = 0, ""
		})
		return c.finish(d), nil
	}
	drift := base > 0 && (base-d.WinnerValue)/base >= c.opts.EscalateThreshold &&
		!winner.SamePartition(baseHDA) &&
		(c.opts.NoReassign || !reachableBySlicing(serving[0], winner))
	if !drift {
		c.setState(func() { c.driftStreak, c.pendingKey = 0, "" })
		return c.finish(d), nil
	}
	c.setState(func() {
		if d.Winner == c.pendingKey {
			c.driftStreak++
		} else {
			c.driftStreak, c.pendingKey = 1, d.Winner
		}
	})
	if c.driftStreak < c.opts.EscalateAfter { //herald:nolock single-writer read under stepMu (see Step)
		return c.finish(d), nil
	}

	// Act: spawn the new generation on the winner, hand the mix over
	// for prewarming, drain and retire the old one.
	hdas := make([]*accel.HDA, len(serving))
	for i := range hdas {
		hdas[i] = winner
	}
	migErr := c.f.Migrate(ctx, hdas, mix)
	if migErr != nil && c.f.Generation() == d.Generation {
		// The swap never happened (replica build failed): the fleet is
		// untouched; the streak survives for the next step.
		return d, fmt.Errorf("fleet: migration to %s failed: %w", d.Winner, migErr)
	}
	// The fleet switched generations — even if the old generation's
	// drain was cut short, commit the post-migration state now.
	c.f.ResetMix()
	c.setState(func() {
		c.migrations++
		c.cooldownLeft = c.opts.Cooldown
		c.driftStreak, c.pendingKey = 0, ""
	})
	d.Action = ElasticMigrated
	d.Generation = c.f.Generation()
	d = c.finish(d)
	if migErr != nil {
		return d, fmt.Errorf("fleet: migrated to %s, but draining the retired generation was interrupted (it will finish in the background or on Drain): %w", d.Winner, migErr)
	}
	return d, nil
}

// Run drives Step on a ticker until ctx is cancelled — the daemon form
// of the control loop (heraldd -elastic / -repartition). Errors are
// logged (via Options.Logf) and do not stop the loop: a transient
// probe failure must not kill the controller.
func (c *ElasticController) Run(ctx context.Context, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if _, err := c.Step(ctx); err != nil && c.opts.Logf != nil {
				c.opts.Logf("elastic step failed: %v", err)
			}
		}
	}
}

// setState applies a state mutation under the read lock, keeping
// Status race-free while Step runs.
func (c *ElasticController) setState(mutate func()) {
	c.mu.Lock()
	mutate()
	c.mu.Unlock()
}

// finish records the decision as the controller's latest, copies the
// streak and cooldown state into it, and logs it.
func (c *ElasticController) finish(d ElasticDecision) ElasticDecision {
	c.mu.Lock()
	d.DriftStreak = c.driftStreak
	d.CooldownLeft = c.cooldownLeft
	last := d
	c.last = &last
	c.mu.Unlock()
	if c.opts.Logf != nil {
		c.opts.Logf("%s", d)
	}
	return d
}

// totalViolations sums SLA violations across every live replica and
// the folded history. Called under stepMu.
func (c *ElasticController) totalViolations() int64 {
	st := c.f.Stats()
	var v int64
	for _, t := range st.Tenants {
		v += t.SLAViolations
	}
	return v
}

// evaluate schedules the mix on one partition with the private
// scheduler and returns the objective value. Step only: c.stepMu held.
func (c *ElasticController) evaluate(h *accel.HDA, mix *workload.Workload) (float64, error) {
	sch, err := c.s.Schedule(h, mix)
	if err != nil {
		return 0, fmt.Errorf("fleet: evaluating partition %s: %w", h, err)
	}
	v := c.obj.Value(dse.Point{
		HDA:        h,
		Schedule:   sch,
		LatencySec: sch.LatencySeconds(1.0),
		EnergyMJ:   sch.EnergyMJ(),
		EDP:        sch.EDP(1.0),
	})
	c.s.Recycle(sch)
	return v, nil
}

// baseline returns the migrate rung's reference: the best objective
// value among the distinct active partitions, the fair baseline for
// the sweep winner. serving[0]'s value v0 is already known, so a
// homogeneous fleet costs no extra schedule. Step only: c.stepMu held.
func (c *ElasticController) baseline(serving []*accel.HDA, v0 float64, mix *workload.Workload) (*accel.HDA, float64, error) {
	bestHDA, best := serving[0], v0
next:
	for i, h := range serving[1:] {
		for _, seen := range serving[:i+1] {
			if h.SamePartition(seen) {
				continue next
			}
		}
		v, err := c.evaluate(h, mix)
		if err != nil {
			return nil, 0, err
		}
		if v < best {
			best, bestHDA = v, h
		}
	}
	return bestHDA, best, nil
}

// bestNeighbor evaluates every partition one PE quantum away from the
// serving one (each ordered (from, to) sub pair, bandwidth moving
// proportionally) and returns the best candidate. The candidate order
// is the deterministic double loop, so ties resolve identically run to
// run. Step only: c.stepMu held.
func (c *ElasticController) bestNeighbor(cur *accel.HDA, mix *workload.Workload) ([]accel.Partition, float64, *accel.HDA, error) {
	q := c.opts.PEQuantum
	if q <= 0 {
		q = cur.Class.PEs / 16
		if q < 1 {
			q = 1
		}
	}
	bwq := cur.Class.BWGBps * float64(q) / float64(cur.Class.PEs)

	var (
		bestParts []accel.Partition
		bestHDA   *accel.HDA
		best      = math.Inf(1)
	)
	for from := range cur.Subs {
		for to := range cur.Subs {
			if from == to || cur.Subs[from].HW.PEs-q < 1 || cur.Subs[from].HW.BWGBps-bwq <= 0 {
				continue
			}
			parts := make([]accel.Partition, len(cur.Subs))
			for i, s := range cur.Subs {
				parts[i] = accel.Partition{Style: s.Style, PEs: s.HW.PEs, BWGBps: s.HW.BWGBps}
			}
			parts[from].PEs -= q
			parts[from].BWGBps -= bwq
			parts[to].PEs += q
			parts[to].BWGBps += bwq
			h, err := accel.New(cur.Name, cur.Class, parts)
			if err != nil {
				return nil, 0, nil, fmt.Errorf("fleet: building neighbor partition: %w", err)
			}
			v, err := c.evaluate(h, mix)
			if err != nil {
				return nil, 0, nil, err
			}
			if v < best {
				best, bestParts, bestHDA = v, parts, h
			}
		}
	}
	if bestHDA == nil {
		return nil, 0, nil, nil // single-sub HDA or quantum too large: no neighbors
	}
	return bestParts, best, bestHDA, nil
}

// reachableBySlicing reports whether target could be reached from cur
// by PE reassignments alone: same class, same sub count, same styles
// in order. Anything else needs a migration.
func reachableBySlicing(cur, target *accel.HDA) bool {
	if cur.Class.Name != target.Class.Name || len(cur.Subs) != len(target.Subs) {
		return false
	}
	for i := range cur.Subs {
		if cur.Subs[i].Style != target.Subs[i].Style {
			return false
		}
	}
	return true
}

// ReassignAll re-slices every active replica to the given partitions
// at its current layer boundary (serve.Engine.Reassign) and refreshes
// the dispatcher's per-replica state that depends on slice sizes (the
// cost-estimate memo). All replicas are validated before any is
// touched, so a sub-count mismatch on a heterogeneous fleet leaves the
// fleet unchanged. Returns the number of replicas reassigned.
func (f *Fleet) ReassignAll(parts []accel.Partition) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return 0, serve.ErrDraining
	}
	for _, r := range f.replicas {
		if len(parts) != len(r.hda.Subs) {
			return 0, fmt.Errorf("fleet: replica %d has %d subs, reassignment has %d partitions (migrate instead)",
				r.id, len(r.hda.Subs), len(parts))
		}
	}
	n := 0
	for _, r := range f.replicas {
		if err := r.engine.Reassign(parts); err != nil {
			return n, fmt.Errorf("fleet: replica %d: %w", r.id, err)
		}
		r.hda = r.engine.HDA()
		// The cost-estimate memo keys on slice sizes; drop it so the
		// horizon ledger re-learns the new slices.
		r.est = make(map[*dnn.Model]int64)
		n++
	}
	return n, nil
}

// PreemptBelow preempts up to maxPerReplica requests with priority
// strictly below the threshold on every active replica (see
// serve.Engine.Preempt) and returns the total preempted. Engines
// without serve.Options.Elastic preempt nothing.
func (f *Fleet) PreemptBelow(priority, maxPerReplica int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, r := range f.replicas {
		n += r.engine.Preempt(priority, maxPerReplica)
	}
	return n
}

// mixString renders a workload as "model:batches+..." for logs.
func mixString(w *workload.Workload) string {
	counts := make(map[string]int)
	var order []string
	for i := range w.Instances {
		name := w.Instances[i].Model.Name
		if counts[name] == 0 {
			order = append(order, name)
		}
		counts[name]++
	}
	parts := make([]string, len(order))
	for i, name := range order {
		parts[i] = fmt.Sprintf("%s:%d", name, counts[name])
	}
	return strings.Join(parts, "+")
}
