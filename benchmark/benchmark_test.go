package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declared reads the metric catalogue from the repository's
// BENCHMARK.json: name → unit, per mode.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, workload files %s", got, want)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny shrinks a workload so every mode runs in about a second.
func tiny(w *Workload) {
	w.Tenant.InitialTables = 200
	w.Cycles = 3
	if w.RestartEvery > 0 {
		w.RestartEvery = 2
	}
	if w.Commits > 0 {
		w.Commits = 200
	}
}

func checkMetrics(t *testing.T, got map[string]jsonMetric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s emitted but not declared in BENCHMARK.json", name)
		}
	}
}

// TestWorkloadsTinyBothModes runs every workload at tiny scale untraced
// and traced. The traced run fails unless its per-cycle decision digests
// equal the tenant's (with the tenant restarting from disk where the
// workload says so) and every recovered commit log equals its writer.
func TestWorkloadsTinyBothModes(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for trace, want := range []map[string]string{endToEnd, perLayer} {
				w, err := loadWorkload(name)
				if err != nil {
					t.Fatal(err)
				}
				tiny(w)
				o := options{workload: name, seed: 7, seconds: 1, trace: trace, spans: filepath.Join(t.TempDir(), "spans.json")}
				res, _, err := measure(w, o)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("trace %d: result %+v", trace, res)
				}
				checkMetrics(t, res.Metrics, want)
				if trace == 1 {
					if _, err := os.Stat(o.spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			}
		})
	}
}

// TestWorkloadFilesRejectUnknownFields checks that a typo at any level of
// a workload file — top level, tenant, policy — fails to parse rather
// than silently taking a default.
func TestWorkloadFilesRejectUnknownFields(t *testing.T) {
	for _, name := range workloadNames() {
		b, err := workloadFiles.ReadFile("workloads/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseWorkload(name, b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, key := range []string{`"tenant": {`, `"policy": {`, `{`} {
			if !bytes.Contains(b, []byte(key)) {
				continue
			}
			bad := bytes.Replace(b, []byte(key), []byte(key+`"no_such_field": 1, `), 1)
			if _, err := parseWorkload(name, bad); err == nil {
				t.Errorf("%s: unknown field after %s accepted", name, key)
			}
		}
	}
}

func TestOutcomeMismatchDetected(t *testing.T) {
	a := &outcome{digests: []string{"x", "y"}, filesReduced: 3}
	b := &outcome{digests: []string{"x", "z"}, filesReduced: 3}
	if a.equal(b) == nil {
		t.Error("differing digests compared equal")
	}
	b.digests[1] = "y"
	if err := a.equal(b); err != nil {
		t.Errorf("equal outcomes: %v", err)
	}
	b.gbhr = 1
	if a.equal(b) == nil {
		t.Error("differing GBHr compared equal")
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "scan-100k", "--trace", "2"},
		{"--workload", "scan-100k", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
