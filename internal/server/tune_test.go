package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autocomp/internal/autotune"
	"autocomp/internal/policy"
	"autocomp/internal/tenant"
)

// tuneBody builds a minimal POST /api/tune request over the shipped
// tuning-micro scenario.
func tuneBody(t *testing.T) []byte {
	t.Helper()
	body := map[string]any{
		"space": json.RawMessage(`{
			"name": "api-micro",
			"dimensions": [
				{"field": "selector.budget_gbhr", "min": 8, "max": 65536, "log": true},
				{"field": "execution.workers", "min": 1, "max": 32}
			]
		}`),
		"scenarios": []string{"tuning-micro"},
		"optimizer": "cfo",
		"budget":    4,
		"seed":      1,
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTuneAPI drives the async tune surface end to end: submit, poll
// status, stream trial events, and fetch the winner.
func TestTuneAPI(t *testing.T) {
	ts, _ := newTestServer(t)

	var info TuneJobInfo
	resp := doJSON(t, "POST", ts.URL+"/api/tune", tuneBody(t), &info)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if info.ID == "" || info.Status != "running" {
		t.Fatalf("submit info: %+v", info)
	}

	// The events stream follows until the job finishes; every line is a
	// valid trial record with contiguous numbering.
	evResp, err := http.Get(ts.URL + "/api/tune/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	var lines [][]byte
	sc := bufio.NewScanner(evResp.Body)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("streamed %d trial events, want 4", len(lines))
	}
	if err := autotune.CheckTrialLog(bytes.NewReader(bytes.Join(lines, []byte("\n")))); err != nil {
		t.Fatalf("streamed trial log: %v", err)
	}

	// Terminal status.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp = doJSON(t, "GET", ts.URL+"/api/tune/"+info.ID, nil, &info)
		if info.Status == "done" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info.Status != "done" || info.Trials != 4 {
		t.Fatalf("final info: %+v", info)
	}

	// The result carries a compile-clean winner and a report whose first
	// trajectory point is the warm start at the base spec.
	var res struct {
		ID     string          `json:"id"`
		Winner *policy.Spec    `json:"winner"`
		Report autotune.Report `json:"report"`
	}
	resp = doJSON(t, "GET", ts.URL+"/api/tune/"+info.ID+"/result", nil, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	if res.Winner == nil || res.Winner.Name != "default-tuned" {
		t.Fatalf("winner: %+v", res.Winner)
	}
	if res.Report.Trajectory[0] != 1.0 {
		t.Fatalf("trajectory does not warm-start at 1.0: %v", res.Report.Trajectory)
	}
	if res.Report.BestComposite > 1.0 {
		t.Fatalf("best composite %v worse than baseline", res.Report.BestComposite)
	}

	// Cursor poll: ?after=2&follow=0 returns only the tail.
	pollResp, err := http.Get(ts.URL + "/api/tune/" + info.ID + "/events?after=2&follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer pollResp.Body.Close()
	var tail []autotune.TrialRecord
	psc := bufio.NewScanner(pollResp.Body)
	for psc.Scan() {
		var rec autotune.TrialRecord
		if err := json.Unmarshal(psc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, rec)
	}
	if len(tail) != 2 || tail[0].Trial != 3 || tail[1].Trial != 4 {
		t.Fatalf("after=2 tail: %+v", tail)
	}
	if bad := doJSON(t, "GET", ts.URL+"/api/tune/"+info.ID+"/events?after=abc", nil, new(apiError)); bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("after=abc status = %d, want 400", bad.StatusCode)
	}

	// The job list includes the finished job.
	var list []TuneJobInfo
	doJSON(t, "GET", ts.URL+"/api/tune", nil, &list)
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list: %+v", list)
	}
}

// TestTuneAPIRejects covers the synchronous 4xx paths: no job is
// created for a request that cannot run.
func TestTuneAPIRejects(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"no space", `{"scenarios":["tuning-micro"]}`, http.StatusBadRequest},
		{"bad space", `{"space":{"dimensions":[{"field":"no.such","min":1,"max":2}]},"scenarios":["tuning-micro"]}`, http.StatusUnprocessableEntity},
		{"no scenarios", `{"space":{"dimensions":[{"field":"execution.workers","min":1,"max":4}]}}`, http.StatusBadRequest},
		{"unknown scenario", `{"space":{"dimensions":[{"field":"execution.workers","min":1,"max":4}]},"scenarios":["no-such"]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp := doJSON(t, "POST", ts.URL+"/api/tune", []byte(tc.body), new(apiError))
		if resp.StatusCode != tc.code {
			t.Errorf("%s: %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	var list []TuneJobInfo
	doJSON(t, "GET", ts.URL+"/api/tune", nil, &list)
	if len(list) != 0 {
		t.Fatalf("rejected requests created jobs: %+v", list)
	}
	resp := doJSON(t, "GET", ts.URL+"/api/tune/tune-1", nil, new(apiError))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
}

// TestTuneRejectsInvalidScenario pins that a scenario failing
// scenario.Spec.Validate, inline or named from the scenarios directory,
// answers 422 naming the scenario and the field, and registers no job.
func TestTuneRejectsInvalidScenario(t *testing.T) {
	dir := t.TempDir()
	huge := `{"name": "huge", "days": 1, "fleet": {"initial_tables": 1048577}}`
	if err := os.WriteFile(filepath.Join(dir, "huge.json"), []byte(huge), 0o644); err != nil {
		t.Fatal(err)
	}
	mgr := tenant.NewManager()
	t.Cleanup(func() { _ = mgr.Shutdown(10 * time.Second) })
	mux := http.NewServeMux()
	(&Server{Mgr: mgr, ScenariosDir: dir}).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	space := `{"dimensions": [{"field": "execution.workers", "min": 1, "max": 4}]}`
	for _, body := range []string{
		`{"space": ` + space + `, "specs": [` + huge + `]}`,
		`{"space": ` + space + `, "scenarios": ["huge"]}`,
	} {
		var apiErr apiError
		resp := doJSON(t, "POST", ts.URL+"/api/tune", []byte(body), &apiErr)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%s)", body, resp.StatusCode, apiErr.Error)
		}
		if !strings.Contains(apiErr.Error, `"huge"`) || !strings.Contains(apiErr.Error, "fleet.initial_tables") {
			t.Fatalf("%s: error %q does not name the scenario and the field", body, apiErr.Error)
		}
	}
	var list []TuneJobInfo
	doJSON(t, "GET", ts.URL+"/api/tune", nil, &list)
	if len(list) != 0 {
		t.Fatalf("rejected scenarios registered jobs: %+v", list)
	}
}

// TestFinishedTuneRetention submits two more one-trial tune jobs than
// the daemon keeps, one after another: the two oldest are forgotten
// (404) and the list holds the newest keepTunes.
func TestFinishedTuneRetention(t *testing.T) {
	ts, _ := newTestServer(t)
	body := []byte(`{
		"space": {"name": "one", "dimensions": [{"field": "execution.workers", "min": 1, "max": 4}]},
		"specs": [{"name": "tiny", "seed": 9, "days": 1, "fleet": {"initial_tables": 8}}],
		"budget": 1
	}`)
	var ids []string
	for range keepTunes + 2 {
		var info TuneJobInfo
		if resp := doJSON(t, "POST", ts.URL+"/api/tune", body, &info); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		ids = append(ids, info.ID)
		waitFor(t, func() bool {
			doJSON(t, "GET", ts.URL+"/api/tune/"+info.ID, nil, &info)
			if info.Status == "error" {
				t.Fatalf("tune %s failed: %s", info.ID, info.Error)
			}
			return info.Status == "done"
		})
	}
	var list []TuneJobInfo
	doJSON(t, "GET", ts.URL+"/api/tune", nil, &list)
	if len(list) != keepTunes || list[0].ID != ids[2] || list[len(list)-1].ID != ids[len(ids)-1] {
		t.Fatalf("kept %d jobs from %s, want %d from %s", len(list), list[0].ID, keepTunes, ids[2])
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if resp := doJSON(t, "GET", ts.URL+"/api/tune/"+id, nil, nil); resp.StatusCode != want {
			t.Fatalf("GET tune %s = %d, want %d", id, resp.StatusCode, want)
		}
	}

}
