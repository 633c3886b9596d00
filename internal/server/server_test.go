package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

const scenariosDir = "../../examples/scenarios"

// newTestServer boots the management API over a fresh manager on an
// httptest listener.
func newTestServer(t *testing.T) (*httptest.Server, *tenant.Manager) {
	t.Helper()
	mgr := tenant.NewManager()
	srv := &Server{Mgr: mgr, ScenariosDir: scenariosDir}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { _ = mgr.Shutdown(10 * time.Second) })
	t.Cleanup(ts.Close)
	return ts, mgr
}

// doJSON issues a request with a JSON body and decodes the JSON reply.
func doJSON(t *testing.T, method, url string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding reply: %v", method, url, err)
		}
	}
	return resp
}

// stepAndReport runs one cycle on a tenant the test owns (created
// paused, so the manager's loop never competes) and returns the report.
func stepAndReport(t *testing.T, tn *tenant.Tenant) *core.Report {
	t.Helper()
	if err := tn.StepCycle(); err != nil {
		t.Fatal(err)
	}
	rep := tn.LastReport()
	if rep == nil {
		t.Fatal("no report after cycle")
	}
	return rep
}

// TestTenantCRUD exercises create/list/status over the wire.
func TestTenantCRUD(t *testing.T) {
	ts, _ := newTestServer(t)

	// Empty daemon lists no tenants.
	var snaps []tenant.Snapshot
	doJSON(t, http.MethodGet, ts.URL+"/api/tenants", nil, &snaps)
	if len(snaps) != 0 {
		t.Fatalf("fresh manager lists %d tenants", len(snaps))
	}

	// Create a running tenant.
	var snap tenant.Snapshot
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"crud","seed":3,"days":2,"initial_tables":15}`), &snap)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	if snap.Name != "crud" || snap.DaysPlanned != 2 {
		t.Fatalf("create snapshot = %+v", snap)
	}

	// Duplicate name is rejected.
	resp = doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"crud"}`), &apiError{})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate create status = %d", resp.StatusCode)
	}

	// Unknown tenant 404s.
	resp = doJSON(t, http.MethodGet, ts.URL+"/api/tenants/ghost", nil, &apiError{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost status = %d", resp.StatusCode)
	}

	// The run finishes and the snapshot reflects it.
	waitFor(t, func() bool {
		var s tenant.Snapshot
		doJSON(t, http.MethodGet, ts.URL+"/api/tenants/crud", nil, &s)
		return s.State == tenant.StateStopped && s.Day == 2
	})
}

// TestCreateRejectsTablesPastBound: a create or an inline run asking
// for one table past fleet.MaxTables answers 422 before any fleet is
// built, and the create registers no tenant.
func TestCreateRejectsTablesPastBound(t *testing.T) {
	ts, mgr := newTestServer(t)
	over := fleet.MaxTables + 1
	var e apiError
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(fmt.Sprintf(`{"name":"huge","initial_tables":%d}`, over)), &e)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "initial_tables") {
		t.Fatalf("create status = %d, error %q; want 422 naming initial_tables", resp.StatusCode, e.Error)
	}
	if _, ok := mgr.Get("huge"); ok || len(mgr.List()) != 0 {
		t.Fatalf("rejected create registered a tenant: %d listed", len(mgr.List()))
	}

	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"small","initial_tables":10,"paused":true}`), &tenant.Snapshot{})
	resp = doJSON(t, http.MethodPost, ts.URL+"/api/tenants/small/runs",
		[]byte(fmt.Sprintf(`{"spec":{"name":"huge","days":1,"fleet":{"initial_tables":%d}}}`, over)), &e)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "fleet.initial_tables") {
		t.Fatalf("inline run status = %d, error %q; want 422 naming fleet.initial_tables", resp.StatusCode, e.Error)
	}
}

// TestLifecycleEndpoints drives pause/resume/stop over the wire. The
// tenant's day budget is far beyond what the test lets it run, so every
// transition happens from a live loop.
func TestLifecycleEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"lc","days":1000000,"initial_tables":10}`), &tenant.Snapshot{})

	var snap tenant.Snapshot
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants/lc/pause", nil, &snap)
	if snap.State != tenant.StatePaused {
		t.Fatalf("state after pause = %v", snap.State)
	}
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants/lc/resume", nil, &snap)
	if snap.State != tenant.StateRunning {
		t.Fatalf("state after resume = %v", snap.State)
	}
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants/lc/stop", nil, &snap)
	waitFor(t, func() bool {
		var s tenant.Snapshot
		doJSON(t, http.MethodGet, ts.URL+"/api/tenants/lc", nil, &s)
		return s.State == tenant.StateStopped
	})
}

// localWatcherFingerprints ages a lake whose policy hot-reloads from a
// file watcher — the local half of the wire-parity contract.
func localWatcherFingerprints(t *testing.T, days, switchAfter int, next *policy.Spec) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policy.json")
	writeSpec(t, path, policy.DefaultSpec())
	watcher, initial, err := policy.NewWatcher(path, policy.StubEnv())
	if err != nil {
		t.Fatal(err)
	}
	tn, err := tenant.New(tenant.Config{Name: "local", Seed: 31, Days: days, InitialTables: 30},
		initial, tenant.Options{
			PollPolicy: func() (*policy.Spec, bool, error) { return watcher.Poll() },
		})
	if err != nil {
		t.Fatal(err)
	}
	var prints []string
	for d := 1; d <= days; d++ {
		if d == switchAfter+1 {
			writeSpec(t, path, next)
		}
		prints = append(prints, testkit.DecisionFingerprint(stepAndReport(t, tn).Decision))
	}
	return prints
}

// TestPolicyPushWireParity is the over-the-wire half of the parity
// criterion: a policy pushed through PUT /policy must decide
// byte-identically to the same spec hot-reloaded from a file by a
// policy.Watcher, cycle for cycle, at the same seed.
func TestPolicyPushWireParity(t *testing.T) {
	const days, switchAfter = 6, 3
	next := policy.DefaultDataSpec(false)
	next.Name = "wire-alternate"
	next.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(5)}}
	next.Execution = nil

	want := localWatcherFingerprints(t, days, switchAfter, next)

	// Remote lake: same seed, created paused so the test owns the cycle
	// boundary; the policy arrives over real HTTP.
	ts, mgr := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"remote","seed":31,"days":6,"initial_tables":30,"paused":true}`), &tenant.Snapshot{})
	tn, ok := mgr.Get("remote")
	if !ok {
		t.Fatal("remote tenant not registered")
	}

	specJSON, err := next.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var prints []string
	for d := 1; d <= days; d++ {
		if d == switchAfter+1 {
			var push struct {
				Diff []string `json:"diff"`
			}
			resp := doJSON(t, http.MethodPut, ts.URL+"/api/tenants/remote/policy", specJSON, &push)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("push status = %d", resp.StatusCode)
			}
			if len(push.Diff) == 0 {
				t.Fatal("push reported no diff")
			}
		}
		prints = append(prints, testkit.DecisionFingerprint(stepAndReport(t, tn).Decision))
	}

	for i := range want {
		if prints[i] != want[i] {
			t.Fatalf("day %d: wire-pushed decisions diverged from local hot reload:\nlocal:\n%s\nwire:\n%s",
				i+1, want[i], prints[i])
		}
	}

	// Provenance reflects the wire push.
	var view struct {
		Name       string `json:"name"`
		Provenance string `json:"provenance"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/api/tenants/remote/policy", nil, &view)
	if view.Name != "wire-alternate" || view.Provenance != "api" {
		t.Fatalf("policy view after push = %+v", view)
	}
}

// TestPolicyPushRejectedOverWire pins the rejected-edit contract at
// the HTTP layer: a 422 carrying the compile errors, the old spec
// still reported, and the pipeline still deciding as before.
func TestPolicyPushRejectedOverWire(t *testing.T) {
	ts, mgr := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"rej","seed":31,"days":6,"initial_tables":30,"paused":true}`), &tenant.Snapshot{})
	tn, ok := mgr.Get("rej")
	if !ok {
		t.Fatal("rej tenant not registered")
	}
	stepAndReport(t, tn)

	var apiErr apiError
	resp := doJSON(t, http.MethodPut, ts.URL+"/api/tenants/rej/policy",
		[]byte(`{"name":"bad","generators":[{"name":"no-such-generator"}]}`), &apiErr)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad push status = %d", resp.StatusCode)
	}
	if !strings.Contains(apiErr.Error, "no-such-generator") {
		t.Fatalf("422 body does not carry the compile error: %q", apiErr.Error)
	}

	var view struct {
		Name string `json:"name"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/api/tenants/rej/policy", nil, &view)
	if view.Name != policy.DefaultSpec().Name {
		t.Fatalf("policy after rejected push = %q", view.Name)
	}

	// The lake keeps deciding: a control tenant at the same seed that
	// never saw the bad push produces the same next decision.
	control, err := tenant.New(tenant.Config{Name: "rej-control", Seed: 31, Days: 6, InitialTables: 30}, nil, tenant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepAndReport(t, control)
	ctrl := stepAndReport(t, control)
	got := stepAndReport(t, tn)
	if testkit.DecisionFingerprint(got.Decision) != testkit.DecisionFingerprint(ctrl.Decision) {
		t.Fatal("pipeline decisions changed after a rejected push")
	}
}

// TestRunGoldenTraceOverAPI is the acceptance test: an API-submitted
// run of a shipped scenario must produce a trace byte-identical to its
// committed golden file.
func TestRunGoldenTraceOverAPI(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"runner","days":1,"initial_tables":10}`), &tenant.Snapshot{})

	var info tenant.RunInfo
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/tenants/runner/runs",
		[]byte(`{"scenario":"steady-state"}`), &info)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if info.Scenario != "steady-state" {
		t.Fatalf("submitted scenario = %q", info.Scenario)
	}

	// Trace before completion is a 409 (unless the run already won the
	// race to finish).
	early, err := http.Get(ts.URL + "/api/tenants/runner/runs/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	early.Body.Close()
	if early.StatusCode != http.StatusConflict && early.StatusCode != http.StatusOK {
		t.Fatalf("early trace status = %d", early.StatusCode)
	}

	waitFor(t, func() bool {
		var i tenant.RunInfo
		doJSON(t, http.MethodGet, ts.URL+"/api/tenants/runner/runs/"+info.ID, nil, &i)
		if i.Status == tenant.RunFailed {
			t.Fatalf("run failed: %s", i.Error)
		}
		return i.Status == tenant.RunDone
	})

	httpResp, err := http.Get(ts.URL + "/api/tenants/runner/runs/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(scenariosDir, "golden", "steady-state.trace"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		t.Fatalf("API-run trace differs from committed golden (%d vs %d bytes)", got.Len(), len(golden))
	}

	// The events stream carries one labeled CycleEvent per day.
	evResp, err := http.Get(ts.URL + "/api/tenants/runner/runs/" + info.ID + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	var events bytes.Buffer
	if _, err := events.ReadFrom(evResp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) != info.Days {
		t.Fatalf("events stream has %d lines, want %d", len(lines), info.Days)
	}
	var ev telemetry.CycleEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Tenant != "runner" || ev.Day != 1 {
		t.Fatalf("first event = tenant %q day %d", ev.Tenant, ev.Day)
	}
}

// TestSubmitInlineScenario submits a spec inline instead of by name,
// and pins the 404/400 paths of run submission.
func TestSubmitInlineScenario(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"inline","days":1,"initial_tables":10}`), &tenant.Snapshot{})

	spec := `{"spec":{"name":"tiny","seed":9,"days":2,"fleet":{"initial_tables":12}}}`
	var info tenant.RunInfo
	resp := doJSON(t, http.MethodPost, ts.URL+"/api/tenants/inline/runs", []byte(spec), &info)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("inline submit status = %d", resp.StatusCode)
	}
	waitFor(t, func() bool {
		var i tenant.RunInfo
		doJSON(t, http.MethodGet, ts.URL+"/api/tenants/inline/runs/"+info.ID, nil, &i)
		if i.Status == tenant.RunFailed {
			t.Fatalf("inline run failed: %s", i.Error)
		}
		return i.Status == tenant.RunDone
	})

	resp = doJSON(t, http.MethodPost, ts.URL+"/api/tenants/inline/runs",
		[]byte(`{"scenario":"no-such-scenario"}`), &apiError{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario status = %d", resp.StatusCode)
	}
	resp = doJSON(t, http.MethodPost, ts.URL+"/api/tenants/inline/runs", []byte(`{}`), &apiError{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submission status = %d", resp.StatusCode)
	}
}

// TestFinishedRunRetention submits two more tiny inline runs than a
// tenant keeps, one after another: the two oldest are forgotten (404)
// and the list holds the newest tenant.KeepRuns.
func TestFinishedRunRetention(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"keep","days":1,"initial_tables":10}`), &tenant.Snapshot{})
	runs := ts.URL + "/api/tenants/keep/runs"
	spec := []byte(`{"spec":{"name":"tiny","seed":9,"days":1,"fleet":{"initial_tables":8}}}`)
	var ids []string
	for range tenant.KeepRuns + 2 {
		var info tenant.RunInfo
		if resp := doJSON(t, http.MethodPost, runs, spec, &info); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		ids = append(ids, info.ID)
		waitFor(t, func() bool {
			var i tenant.RunInfo
			doJSON(t, http.MethodGet, runs+"/"+info.ID, nil, &i)
			if i.Status == tenant.RunFailed {
				t.Fatalf("run %s failed: %s", info.ID, i.Error)
			}
			return i.Status == tenant.RunDone
		})
	}
	var list []tenant.RunInfo
	doJSON(t, http.MethodGet, runs, nil, &list)
	if len(list) != tenant.KeepRuns || list[0].ID != ids[2] || list[len(list)-1].ID != ids[len(ids)-1] {
		t.Fatalf("kept %d runs from %s, want %d from %s", len(list), list[0].ID, tenant.KeepRuns, ids[2])
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if resp := doJSON(t, http.MethodGet, runs+"/"+id, nil, nil); resp.StatusCode != want {
			t.Fatalf("GET run %s = %d, want %d", id, resp.StatusCode, want)
		}
	}
}

// TestRunEventsCursor pins the run event stream's cursor: a plain poll
// with ?after=N returns only events with Seq > N, and a malformed cursor
// is a 400.
func TestRunEventsCursor(t *testing.T) {
	ts, _ := newTestServer(t)
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants",
		[]byte(`{"name":"cursor","days":1,"initial_tables":10}`), &tenant.Snapshot{})
	spec := `{"spec":{"name":"tiny","seed":9,"days":3,"fleet":{"initial_tables":12}}}`
	var info tenant.RunInfo
	doJSON(t, http.MethodPost, ts.URL+"/api/tenants/cursor/runs", []byte(spec), &info)
	runURL := ts.URL + "/api/tenants/cursor/runs/" + info.ID
	waitFor(t, func() bool {
		var i tenant.RunInfo
		doJSON(t, http.MethodGet, runURL, nil, &i)
		if i.Status == tenant.RunFailed {
			t.Fatalf("run failed: %s", i.Error)
		}
		return i.Status == tenant.RunDone
	})

	resp, err := http.Get(runURL + "/events?after=1&follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var seqs []int64
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev telemetry.CycleEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, ev.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 {
		t.Fatalf("after=1 returned seqs %v, want [2 3]", seqs)
	}

	bad := doJSON(t, http.MethodGet, runURL+"/events?after=abc", nil, &apiError{})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("after=abc status = %d, want 400", bad.StatusCode)
	}
}

func writeSpec(t *testing.T, path string, sp *policy.Spec) {
	t.Helper()
	b, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never reached")
}
