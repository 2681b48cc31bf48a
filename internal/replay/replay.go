// Package replay re-runs a captured or generated request trace
// (internal/capture) against a candidate fleet configuration and
// renders a deterministic digest of everything that happened:
// counters, conservation, per-tenant latency percentiles, the
// fault-handling decision log and any controller decisions.
//
// Determinism is the whole point: the same trace, fault plan and
// configuration produce byte-identical digests run after run, so an
// operator can export a live incident (trace + decision log), re-run
// it offline under a changed partition, routing policy, fusion plan or
// shedding knob, and byte-compare the outcomes. The harness gets there
// by replaying in quiesce windows: every replica engine starts paused
// (fleet.Options.StartPaused), a window of trace entries is submitted
// against frozen engines — a static queue, so tenant-round-robin batch
// composition is a pure function of the submissions — then the fleet
// is resumed, the window's tickets are awaited, an optional fleet
// controller steps at the (now idle) boundary, and the
// engines are paused again for the next window. Submission order is
// the trace order, the fault clock advances only on arrival cycles,
// and nothing reads the wall clock.
//
// Fleet-level fusion (fleet.Options.Plans) is completion-paced —
// segment k+1's submission races the dispatcher clock by design — so
// Run rejects it; engine-level fusion (serve.Options.Plans) is
// schedule-paced and replays exactly.
package replay

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/serve"
)

// Options configures one replay run.
type Options struct {
	// Fleet is the candidate configuration under test. StartPaused is
	// forced on (the windowed protocol requires it); Plans (fleet-level
	// fusion) must be nil — set Fleet.Serve.Plans to replay fused
	// serving.
	Fleet fleet.Options

	// Window is the quiesce-window size in trace entries: after every
	// Window submissions the engines run the admitted work to
	// completion before the next batch is admitted. 0 replays the
	// whole trace as one window. Smaller windows interleave admission
	// with execution more finely (closer to live arrival pacing);
	// either way the composition of every scheduling round is a pure
	// function of trace order, so any fixed Window is deterministic.
	Window int

	// Elastic, when set, attaches the fleet controller and steps it
	// once at every window boundary — the deterministic stand-in for
	// the live ticker. The migration-only preset (NoReassign) needs
	// Fleet.Sweeper. Fleet.Serve.Elastic is forced on so the SLA-risk
	// preemption trigger can act. Requires Window > 0.
	Elastic *fleet.ElasticOptions
}

// Run replays the trace and returns its digest. See the package
// comment for the windowed protocol and its determinism argument.
func Run(ctx context.Context, cache *maestro.Cache, hdas []*accel.HDA, tr *capture.Trace, o Options) (*Digest, error) {
	if tr == nil || len(tr.Entries) == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	if o.Fleet.Plans != nil {
		return nil, fmt.Errorf("replay: fleet-level fusion (fleet.Options.Plans) is completion-paced and not bit-reproducible; use engine-level fusion (Fleet.Serve.Plans) instead")
	}
	if o.Window < 0 {
		return nil, fmt.Errorf("replay: window must be >= 0 (got %d)", o.Window)
	}
	if o.Elastic != nil && o.Window <= 0 {
		return nil, fmt.Errorf("replay: a controller needs a window (set Options.Window)")
	}
	for i, e := range tr.Entries {
		if e.ArrivalCycle < 0 {
			return nil, fmt.Errorf("replay: entry %d: negative arrival cycle %d (traces must carry explicit arrivals)", i, e.ArrivalCycle)
		}
	}

	o.Fleet.StartPaused = true
	if o.Elastic != nil {
		o.Fleet.Serve.Elastic = true
	}
	f, err := fleet.New(cache, hdas, o.Fleet)
	if err != nil {
		return nil, err
	}
	var ectrl *fleet.ElasticController
	if o.Elastic != nil {
		ectrl, err = fleet.NewElasticController(f, *o.Elastic)
		if err != nil {
			return nil, err
		}
	}

	d := &Digest{
		Version: DigestVersion,
		Trace: TraceInfo{
			Note:       tr.Note,
			Entries:    len(tr.Entries),
			FirstCycle: tr.Entries[0].ArrivalCycle,
			LastCycle:  tr.Entries[0].ArrivalCycle,
		},
		Setup: Setup{
			Policy:        f.Policy().String(),
			Replicas:      len(hdas),
			ShedSLAFactor: o.Fleet.Health.ShedSLAFactor,
			Window:        o.Window,
			Elastic:       ectrl != nil,
		},
	}
	for _, e := range tr.Entries {
		if e.ArrivalCycle < d.Trace.FirstCycle {
			d.Trace.FirstCycle = e.ArrivalCycle
		}
		if e.ArrivalCycle > d.Trace.LastCycle {
			d.Trace.LastCycle = e.ArrivalCycle
		}
	}
	for _, h := range hdas {
		d.Setup.HDAs = append(d.Setup.HDAs, h.Name)
	}
	fused := make([]string, 0, len(o.Fleet.Serve.Plans))
	for name := range o.Fleet.Serve.Plans { //herald:nondet collect-then-sort
		fused = append(fused, name)
	}
	sort.Strings(fused)
	d.Setup.FusedModels = fused
	if o.Fleet.Faults != nil {
		d.Setup.FaultEvents = len(o.Fleet.Faults.Events)
	}

	// The windowed loop: submit against paused engines, resume, wait
	// the window's tickets, step the controller at the idle boundary,
	// freeze again.
	rejects := make(map[string]int64)
	var tickets []*fleet.Ticket
	flush := func(step bool) error {
		f.ResumeAll()
		for _, t := range tickets {
			if _, err := t.Wait(ctx); err != nil {
				// Ticket resolution errors (timeout/cancel) abort the
				// replay; scheduling failures resolve with a failed
				// record, not an error, and stay in the counters.
				return fmt.Errorf("replay: awaiting window ticket %d: %w", t.ID, err)
			}
		}
		tickets = tickets[:0]
		if step && ectrl != nil {
			dec, err := ectrl.Step(ctx)
			if err != nil {
				return fmt.Errorf("replay: controller step: %w", err)
			}
			d.ElasticDecisions = append(d.ElasticDecisions, dec)
		}
		f.PauseAll()
		return nil
	}
	for i, e := range tr.Entries {
		t, err := f.Submit(serve.Request{
			Tenant:       e.Tenant,
			Model:        e.Model,
			Priority:     e.Priority,
			SLACycles:    e.SLACycles,
			ArrivalCycle: e.ArrivalCycle,
		})
		switch {
		case err == nil:
			tickets = append(tickets, t)
		case errors.As(err, new(*fleet.ShedError)):
			// Shed arrivals are already counted (Counters.Shed and the
			// per-tenant rows); no separate reject bucket.
		case errors.Is(err, serve.ErrQueueFull):
			rejects["queue-full"]++
		case errors.Is(err, serve.ErrDraining):
			rejects["draining"]++
		case errors.Is(err, fleet.ErrNoReplicas):
			rejects["no-replicas"]++
		default:
			rejects["client"]++
		}
		if o.Window > 0 && (i+1)%o.Window == 0 {
			if err := flush(true); err != nil {
				return nil, err
			}
		}
	}
	// Flush the final partial window without a controller step (the
	// step cadence is one per full window, so a trace of length k·W
	// steps exactly k times).
	if err := flush(false); err != nil {
		return nil, err
	}

	f.ResumeAll()
	st, err := f.Drain(ctx)
	if err != nil {
		return nil, fmt.Errorf("replay: drain: %w", err)
	}

	d.Counters = Counters{
		Submitted:            st.Submitted,
		Completed:            st.Completed,
		Failed:               st.Failed,
		Rejected:             st.Rejected,
		Pending:              st.Pending,
		Shed:                 st.Shed,
		Failovers:            st.Failovers,
		Lost:                 st.Lost,
		Crashes:              st.Crashes,
		Recoveries:           st.Recoveries,
		BreakerTrips:         st.BreakerTrips,
		Migrations:           st.Migrations,
		Preemptions:          st.Preemptions,
		Resumes:              st.Resumes,
		PEReassigns:          st.PEReassigns,
		Generation:           st.Generation,
		MakespanCycles:       st.MakespanCycles,
		CrossReplicaHandoffs: st.CrossReplicaHandoffs,
		Segments:             st.Segments,
	}
	// Fleet-level Segments only counts dispatcher-decomposed chains;
	// with engine-level fusion (the replayable kind) the counters live
	// per replica — fold them in so the digest sees fused activity
	// either way.
	for _, rs := range st.PerReplica {
		d.Counters.Segments.Add(rs.Engine.Segments)
	}
	d.Conservation = Conservation{
		Submitted: st.Submitted,
		Completed: st.Completed,
		Failed:    st.Failed,
		Pending:   st.Pending,
		Holds:     st.Submitted == st.Completed+st.Failed && st.Pending == 0,
	}
	if len(rejects) > 0 {
		d.Rejects = rejects
	}
	d.Tenants = st.Tenants
	d.FaultDecisions = f.Decisions()
	return d, nil
}
