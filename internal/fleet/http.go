package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dnn"
	"repro/internal/serve"
)

// DispatchAck acknowledges an asynchronous fleet submission.
type DispatchAck struct {
	ID      int64        `json:"id"`
	Replica int          `json:"replica"`
	Status  serve.Status `json:"status"`
}

// DispatchRecord is a request's final record plus the replica that
// served it.
type DispatchRecord struct {
	serve.Record
	Replica int `json:"replica"`
}

// httpError is the JSON error body of every fleet endpoint. Code is a
// stable machine-readable discriminator shared with the engine
// surface (bad_request, queue_full, draining, not_found, timeout)
// plus the fleet-only codes shed and no_replicas.
type httpError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError emits the JSON error body, adding a Retry-After header
// to retryable rejections: retryAfter seconds when positive, else 1
// second for any 429.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	if retryAfter < 1 && status == http.StatusTooManyRequests {
		retryAfter = 1
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, httpError{Error: msg, Code: code})
}

// submitErrorStatus maps a fleet Submit error onto the engine error
// contract plus the fleet-only rejections: a shed request is
// retryable overload (429, Retry-After from the shed decision), a
// fleet with no eligible replica is unavailable (503).
func submitErrorStatus(err error) (status int, code string, retryAfter int) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		return http.StatusTooManyRequests, "shed", shed.RetryAfterSeconds
	case errors.Is(err, ErrNoReplicas):
		return http.StatusServiceUnavailable, "no_replicas", 0
	}
	status, code = serve.SubmitErrorStatus(err)
	return status, code, 0
}

// Handler returns the fleet's JSON-over-HTTP API:
//
//	POST /v1/requests              dispatch a request via the routing
//	                               policy (serve.SubmitRequest body;
//	                               responses carry the replica index)
//	GET  /v1/fleet/stats           fleet-wide aggregate + per-replica
//	GET  /v1/stats                 alias of /v1/fleet/stats
//	GET  /v1/fleet/health          per-replica health, fault counters,
//	                               and the fault-handling decision log
//	GET  /v1/fleet/decisions       the fault-handling decision log on
//	                               its own (export an incident; see
//	                               ExportFaultPlan)
//	GET  /v1/fleet/repartition     controller status (ElasticStatus)
//	                               (404 when no controller is attached)
//	POST /v1/drain                 drain every replica, final stats
//	GET  /v1/models                servable model zoo
//	GET  /v1/healthz               liveness (replica count, policy)
//	ANY  /v1/replicas/{i}/{rest}   delegate to replica i's engine API
//	                               (e.g. /v1/replicas/0/requests/7,
//	                               /v1/replicas/2/schedule)
//
// Replica ids are stable across migrations (each new generation takes
// fresh ids); delegation resolves the replica at request time, so a
// still-retiring replica stays inspectable until it is folded.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", f.handleSubmit)
	mux.HandleFunc("GET /v1/fleet/stats", f.handleStats)
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	mux.HandleFunc("GET /v1/fleet/health", f.handleHealth)
	mux.HandleFunc("GET /v1/fleet/decisions", f.handleDecisions)
	mux.HandleFunc("GET /v1/fleet/repartition", f.handleRepartition)
	mux.HandleFunc("POST /v1/drain", f.handleDrain)
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"models": dnn.Names()})
	})
	mux.HandleFunc("GET /v1/healthz", f.handleHealthz)
	mux.HandleFunc("/v1/replicas/{replica}/{rest...}", f.handleReplica)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (f *Fleet) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serve.SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request body: %v", err), 0)
		return
	}
	req.Normalize()
	ticket, err := f.Submit(req.Request)
	if err != nil {
		status, code, retryAfter := submitErrorStatus(err)
		writeError(w, status, code, err.Error(), retryAfter)
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, DispatchAck{ID: ticket.ID, Replica: ticket.Replica, Status: serve.StatusQueued})
		return
	}
	rec, err := ticket.Wait(r.Context())
	if err != nil {
		writeError(w, http.StatusRequestTimeout, "timeout", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, DispatchRecord{Record: rec, Replica: ticket.Served()})
}

func (f *Fleet) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Stats())
}

func (f *Fleet) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Health())
}

// DecisionLog is the GET /v1/fleet/decisions payload: the bounded
// fault-handling decision log on its own, without the per-replica
// health detail GET /v1/fleet/health wraps around it. An operator
// exports it, feeds it to ExportFaultPlan (heraldplay -faults), and
// re-runs the incident offline.
type DecisionLog struct {
	// Decisions is the retained log, oldest first. The log is bounded
	// (older halves are dropped past the cap), so Seq of the first
	// entry tells a consumer whether decisions were evicted.
	Decisions []FaultDecision `json:"decisions"`
}

func (f *Fleet) handleDecisions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DecisionLog{Decisions: f.Decisions()})
}

func (f *Fleet) handleDrain(w http.ResponseWriter, r *http.Request) {
	st, err := f.Drain(r.Context())
	if err != nil {
		writeError(w, http.StatusRequestTimeout, "timeout", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (f *Fleet) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"replicas":   f.Size(),
		"generation": f.Generation(),
		"policy":     f.Policy().String(),
		"uptime":     time.Since(f.start).String(), //herald:nondet wall-clock uptime is reporting-only
	})
}

// handleRepartition reports the attached controller's status: action
// counters, drift streak, cooldown, and the last decision.
func (f *Fleet) handleRepartition(w http.ResponseWriter, r *http.Request) {
	f.ctrlMu.Lock()
	c := f.controller
	f.ctrlMu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, "not_found",
			"no controller attached (start one with fleet.NewElasticController / heraldd -elastic or -repartition)", 0)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// handleReplica delegates /v1/replicas/{i}/{rest} to replica i's own
// engine API by rewriting the path to /v1/{rest} — the whole
// per-engine surface (request lookup, schedule export, per-replica
// stats) stays reachable through the fleet front end. Replicas are
// resolved by id at request time, so the surface follows migrations.
func (f *Fleet) handleReplica(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("replica"))
	var rep *replica
	if err == nil {
		rep = f.replicaByID(id)
	}
	if rep == nil {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf(
			"no live replica %q (the id may belong to a retired generation; the fleet is at generation %d)",
			r.PathValue("replica"), f.Generation()), 0)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/" + r.PathValue("rest")
	rep.httpHandler().ServeHTTP(w, r2)
}
