// Package server is the daemon's HTTP management API: the write half
// of the serving story. It mounts on the same mux as the read-only
// telemetry endpoints (/metrics, /statusz) and exposes the hosted
// tenants — list/create, lifecycle, policy show/push with validate +
// diff + atomic between-cycle swap, and scenario runs with JSONL event
// streaming. Endpoint reference with curl examples: docs/management.md.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"autocomp/internal/policy"
	"autocomp/internal/scenario"
	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

// maxBodyBytes bounds management-request bodies (specs are small).
const maxBodyBytes = 1 << 20

// Server serves the management API over a tenant.Manager.
type Server struct {
	// Mgr hosts the tenants the API manages.
	Mgr *tenant.Manager
	// ScenariosDir is where run submissions resolve scenarios by name
	// ("" disables by-name submission; inline specs always work).
	ScenariosDir string
	// Logf receives operational messages (nil discards them). It is also
	// handed to tenants created through the API.
	Logf func(format string, args ...any)
	// TuneWorkers bounds each tune job's evaluation pool (0 =
	// GOMAXPROCS). The worker count never changes a tune's result bytes.
	TuneWorkers int

	// Tune-job registry (POST /api/tune), in submission order and
	// pruned at each submit (see keepTunes).
	tuneMu  sync.Mutex
	tunes   []*tuneJob
	tuneSeq int
}

// Register mounts every management route on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/tenants", s.handleListTenants)
	mux.HandleFunc("POST /api/tenants", s.handleCreateTenant)
	mux.HandleFunc("GET /api/tenants/{tenant}", s.withTenant(s.handleTenantStatus))
	mux.HandleFunc("POST /api/tenants/{tenant}/pause", s.withTenant(s.handlePause))
	mux.HandleFunc("POST /api/tenants/{tenant}/resume", s.withTenant(s.handleResume))
	mux.HandleFunc("POST /api/tenants/{tenant}/stop", s.withTenant(s.handleStop))
	mux.HandleFunc("GET /api/tenants/{tenant}/policy", s.withTenant(s.handlePolicyShow))
	mux.HandleFunc("PUT /api/tenants/{tenant}/policy", s.withTenant(s.handlePolicyPush))
	mux.HandleFunc("GET /api/tenants/{tenant}/runs", s.withTenant(s.handleListRuns))
	mux.HandleFunc("POST /api/tenants/{tenant}/runs", s.withTenant(s.handleSubmitRun))
	mux.HandleFunc("GET /api/tenants/{tenant}/runs/{run}", s.withRun(s.handleRunStatus))
	mux.HandleFunc("GET /api/tenants/{tenant}/runs/{run}/events", s.withRun(s.handleRunEvents))
	mux.HandleFunc("GET /api/tenants/{tenant}/runs/{run}/trace", s.withRun(s.handleRunTrace))
	s.registerTune(mux)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// writeJSON renders v with a status code. Replies go to API clients,
// not into HTML, so strings keep their bytes: a policy diff line reads
// "->" as `lakectl policy diff` prints it, not "-\u003e".
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// withTenant resolves the {tenant} path segment.
func (s *Server) withTenant(h func(http.ResponseWriter, *http.Request, *tenant.Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t, ok := s.Mgr.Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, "no such tenant %q", name)
			return
		}
		h(w, r, t)
	}
}

// withRun resolves {tenant} and {run}.
func (s *Server) withRun(h func(http.ResponseWriter, *http.Request, *tenant.Tenant, *tenant.Run)) http.HandlerFunc {
	return s.withTenant(func(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
		id := r.PathValue("run")
		run, ok := t.Run(id)
		if !ok {
			writeError(w, http.StatusNotFound, "tenant %s has no run %q", t.Name(), id)
			return
		}
		h(w, r, t, run)
	})
}

// handleListTenants: GET /api/tenants → snapshots in registration order.
func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	tenants := s.Mgr.List()
	out := make([]tenant.Snapshot, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, t.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// createTenantRequest is the POST /api/tenants body: the fleet config
// plus an optional inline policy spec (default policy otherwise).
type createTenantRequest struct {
	tenant.Config
	// Policy is the tenant's initial policy spec (omit for the default).
	Policy json.RawMessage `json:"policy,omitempty"`
	// Paused, when true, registers the tenant without starting its cycle
	// loop (start later with resume — created tenants accept resume).
	Paused bool `json:"paused,omitempty"`
}

// handleCreateTenant: POST /api/tenants → create (and normally start)
// a tenant.
func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req createTenantRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var spec *policy.Spec
	if len(req.Policy) > 0 {
		sp, err := policy.Parse(req.Policy)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "policy: %v", err)
			return
		}
		spec = sp
	}
	t, err := s.Mgr.Create(req.Config, spec, tenant.Options{
		Provenance: "api",
		Logf:       s.Logf,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if !req.Paused {
		if err := s.Mgr.Start(t); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	s.logf("mgmt: created tenant %s (days=%d seed=%d)", t.Name(), t.Config().Days, t.Config().Seed)
	writeJSON(w, http.StatusCreated, t.Status())
}

// handleTenantStatus: GET /api/tenants/{t} → fleet/dirty-set/scheduler
// snapshot.
func (s *Server) handleTenantStatus(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	writeJSON(w, http.StatusOK, t.Status())
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	if err := t.Pause(); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, t.Status())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	if t.State() == tenant.StateCreated {
		// A tenant created with {"paused": true} starts here.
		if err := s.Mgr.Start(t); err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, t.Status())
		return
	}
	if err := t.Resume(); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, t.Status())
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	t.Stop()
	writeJSON(w, http.StatusOK, t.Status())
}

// policyView is the GET /policy body: the spec plus its provenance.
type policyView struct {
	Name       string       `json:"name"`
	Provenance string       `json:"provenance"`
	Spec       *policy.Spec `json:"spec"`
}

// handlePolicyShow: GET /api/tenants/{t}/policy.
func (s *Server) handlePolicyShow(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	spec, name, provenance := t.PolicyInfo()
	writeJSON(w, http.StatusOK, policyView{Name: name, Provenance: provenance, Spec: spec})
}

// policyPushResponse reports an accepted push: the field-wise diff that
// will take effect at the tenant's next cycle boundary.
type policyPushResponse struct {
	Tenant  string   `json:"tenant"`
	Policy  string   `json:"policy"`
	Diff    []string `json:"diff"`
	Applied string   `json:"applied"`
}

// handlePolicyPush: PUT /api/tenants/{t}/policy — validate, diff, and
// stage an atomic between-cycle swap. Rejected specs return the compile
// errors with 422 and leave the running pipeline untouched (the same
// contract as the file watcher's hot reload).
func (s *Server) handlePolicyPush(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp, err := policy.Parse(body)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	diff, err := t.PushPolicy(sp)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.logf("mgmt: tenant %s staged policy %q (%d change(s))", t.Name(), sp.Name, len(diff))
	writeJSON(w, http.StatusOK, policyPushResponse{
		Tenant:  t.Name(),
		Policy:  sp.Name,
		Diff:    diff,
		Applied: "next cycle boundary",
	})
}

// handleListRuns: GET /api/tenants/{t}/runs.
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	runs := t.Runs()
	out := make([]tenant.RunInfo, 0, len(runs))
	for _, run := range runs {
		out = append(out, run.Info())
	}
	writeJSON(w, http.StatusOK, out)
}

// submitRunRequest names a shipped scenario or carries one inline.
type submitRunRequest struct {
	// Scenario names a spec in the daemon's scenarios directory.
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline scenario definition (wins over Scenario).
	Spec json.RawMessage `json:"spec,omitempty"`
}

// handleSubmitRun: POST /api/tenants/{t}/runs.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	var req submitRunRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var spec *scenario.Spec
	switch {
	case len(req.Spec) > 0:
		sp, err := scenario.Parse(req.Spec)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		spec = sp
	case req.Scenario != "":
		sp, err := s.findScenario(req.Scenario)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		spec = sp
	default:
		writeError(w, http.StatusBadRequest, `body needs "scenario" (name) or "spec" (inline)`)
		return
	}
	run, err := t.SubmitRun(spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.logf("mgmt: tenant %s run %s started (scenario=%s days=%d)", t.Name(), run.ID(), spec.Name, spec.Days)
	writeJSON(w, http.StatusAccepted, run.Info())
}

// findScenario resolves a scenario by name from the scenarios dir.
func (s *Server) findScenario(name string) (*scenario.Spec, error) {
	if s.ScenariosDir == "" {
		return nil, errors.New("server: no scenarios directory configured; submit an inline spec")
	}
	specs, err := scenario.LoadDir(s.ScenariosDir)
	if err != nil {
		return nil, fmt.Errorf("server: loading scenarios: %w", err)
	}
	for _, sp := range specs {
		if sp.Name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("server: no scenario named %q in %s", name, s.ScenariosDir)
}

// handleRunStatus: GET /api/tenants/{t}/runs/{id}.
func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request, t *tenant.Tenant, run *tenant.Run) {
	writeJSON(w, http.StatusOK, run.Info())
}

// handleRunTrace: GET /api/tenants/{t}/runs/{id}/trace — the canonical
// scenario trace bytes (byte-identical to the committed golden file
// when the scenario and seed match).
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request, t *tenant.Tenant, run *tenant.Run) {
	info := run.Info()
	if info.Status != tenant.RunDone {
		writeError(w, http.StatusConflict, "run %s is %s; trace is available once done", run.ID(), info.Status)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(run.Trace())
}

// handleRunEvents: GET /api/tenants/{t}/runs/{id}/events — the run's
// per-cycle CycleEvents as JSONL, streamed until the run reaches a
// terminal state (or from ?after=N for a plain poll), with the event
// Seq as the cursor.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request, t *tenant.Tenant, run *tenant.Run) {
	streamAfter(w, r, run.Done(), run.Events, func(ev telemetry.CycleEvent) int64 { return ev.Seq })
}

// streamAfter serves a cursor-resumable JSONL stream: every record
// since(after) returns for the ?after=N cursor (default 0), then —
// unless ?follow=0 — polls for newer records until done closes (one
// final drain) or the client goes away. cursor reads a record's
// position, which since must compare strictly (records after N).
func streamAfter[T any](w http.ResponseWriter, r *http.Request, done <-chan struct{},
	since func(after int64) []T, cursor func(T) int64) {
	after := int64(0)
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad after=%q: %v", v, err)
			return
		}
		after = n
	}
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	write := func() {
		for _, rec := range since(after) {
			_ = enc.Encode(rec)
			after = cursor(rec)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	write()
	if !follow {
		return
	}
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			write()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			write()
		}
	}
}

func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	b, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(b) == 0 {
		return nil, errors.New("empty body")
	}
	return b, nil
}

func decodeBody(r *http.Request, v any) error {
	b, err := readBody(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	return nil
}
