package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/telemetry"
)

func minimalSpec(name string) *Spec {
	return &Spec{
		Name:  name,
		Seed:  9,
		Days:  4,
		Fleet: FleetSpec{InitialTables: 60, Databases: 4},
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"no-name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"no-days", func(s *Spec) { s.Days = 0 }, "days must be"},
		{"too-many-days", func(s *Spec) { s.Days = fleet.MaxDays + 1 },
			"days must be at most 36500, got 36501"},
		{"no-tables", func(s *Spec) { s.Fleet.InitialTables = 0 }, "initial_tables"},
		{"too-many-tables", func(s *Spec) { s.Fleet.InitialTables = fleet.MaxTables + 1 },
			"fleet.initial_tables must be at most 1048576, got 1048577"},
		{"too-many-monthly", func(s *Spec) { s.Fleet.TablesPerMonth = fleet.MaxTables + 1 },
			"fleet.tables_per_month must be at most 1048576, got 1048577"},
		{"bad-kind", func(s *Spec) {
			s.Workload = []PatternSpec{{Kind: "tsunami"}}
		}, "unknown kind"},
		{"backfill-day", func(s *Spec) {
			s.Workload = []PatternSpec{{Kind: KindBackfill, Day: 99}}
		}, "backfill day"},
		{"burst-with-day", func(s *Spec) {
			s.Workload = []PatternSpec{{Kind: KindBurst, Day: 3}}
		}, `"day" does not apply`},
		{"backfill-with-window", func(s *Spec) {
			s.Workload = []PatternSpec{{Kind: KindBackfill, Day: 2, FromDay: 1}}
		}, `"from_day" does not apply`},
		{"steady-with-knobs", func(s *Spec) {
			s.Workload = []PatternSpec{{Kind: KindSteady, Commits: 5}}
		}, "does not apply"},
		{"dead-window", func(s *Spec) {
			s.Workload = []PatternSpec{{Kind: KindBurst, FromDay: 20}}
		}, "would never fire"},
		{"window-past-end", func(s *Spec) {
			s.Workload = []PatternSpec{{Kind: KindHotSkew, FromDay: 2, ToDay: 9}}
		}, "to_day"},
		{"bad-prob", func(s *Spec) {
			s.Faults = &FaultSpec{CommitFailureProb: 1.5}
		}, "commit_failure_prob"},
		{"drop-day", func(s *Spec) {
			s.Faults = &FaultSpec{Drops: []DropSpec{{Day: 0, Tables: 1}}}
		}, "drops[0]"},
		{"reload-day-one", func(s *Spec) {
			s.Reloads = []ReloadSpec{{Day: 1, Policy: policy.DefaultSpec()}}
		}, "reloads[0]"},
		{"reload-bad-policy", func(s *Spec) {
			s.Reloads = []ReloadSpec{{Day: 2, Policy: &policy.Spec{}}}
		}, "reloads[0]"},
		{"bad-policy", func(s *Spec) {
			s.Policy = &policy.Spec{Generators: []policy.Component{{Name: "nope"}}}
		}, "policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimalSpec("x")
			tc.edit(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","days":3,"flete":{}}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{`{"name":"y"}`, ` junk`} {
		if _, err := Parse([]byte(`{"name":"x","days":3}` + tail)); err == nil {
			t.Errorf("scenario followed by %q accepted", tail)
		}
	}
}

// TestWatcherHotReloadSwitchesAtCycleBoundary drives a scenario the way
// autocompd drives its policy file: a policy.Watcher is polled between
// StepDay calls, and an edit landing mid-run must switch the pipeline
// exactly at the next cycle boundary — the trace shows every cycle
// before the reload under the old policy and every cycle from the
// boundary on under the new one, never a mixed cycle.
func TestWatcherHotReloadSwitchesAtCycleBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.json")
	writeSpec := func(ps *policy.Spec) {
		b, err := ps.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := policy.DefaultSpec()
	writeSpec(base)

	w, loaded, err := policy.NewWatcher(path, fleet.ValidationEnv())
	if err != nil {
		t.Fatal(err)
	}
	spec := minimalSpec("watcher-reload")
	spec.Days = 6
	spec.Policy = loaded
	eng, err := NewEngine(spec)
	if err != nil {
		t.Fatal(err)
	}

	const reloadAfterDay = 3
	for day := 1; day <= spec.Days; day++ {
		if err := eng.StepDay(); err != nil {
			t.Fatal(err)
		}
		if day == reloadAfterDay {
			// The operator edits the file while day 3's cycle is already
			// history; the watcher picks it up at the between-cycle poll.
			edited := policy.DefaultSpec()
			edited.Name = "tight-topk"
			edited.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(2)}}
			writeSpec(edited)
			ns, changed, err := w.Poll()
			if err != nil || !changed {
				t.Fatalf("poll = %v, %v", changed, err)
			}
			eng.ReloadPolicy(ns)
		}
	}
	tr := eng.Finalize()
	for _, c := range tr.Cycles {
		switch {
		case c.Day <= reloadAfterDay:
			if c.Policy != "default" || c.Reloaded {
				t.Fatalf("day %d ran under %q (reloaded=%v), want pre-reload default", c.Day, c.Policy, c.Reloaded)
			}
		default:
			if c.Policy != "tight-topk" {
				t.Fatalf("day %d ran under %q, want tight-topk", c.Day, c.Policy)
			}
			if (c.Day == reloadAfterDay+1) != c.Reloaded {
				t.Fatalf("day %d reloaded=%v, want the switch marked exactly once at the boundary", c.Day, c.Reloaded)
			}
			if c.Funnel.Selected > 2 {
				t.Fatalf("day %d selected %d under top-k 2", c.Day, c.Funnel.Selected)
			}
		}
	}
}

// TestReloadStagedMidCycleAppliesNextCycle stages a reload between
// StepDay calls, after day 2's cycle has run: that cycle keeps the old
// policy and the very next cycle runs the new one.
func TestReloadStagedMidCycleAppliesNextCycle(t *testing.T) {
	spec := minimalSpec("mid-cycle-reload")
	eng, err := NewEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	tight := policy.DefaultSpec()
	tight.Name = "tight"
	tight.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(1)}}
	for day := 1; day <= spec.Days; day++ {
		if err := eng.StepDay(); err != nil {
			t.Fatal(err)
		}
		if day == 2 {
			eng.ReloadPolicy(tight)
		}
	}
	tr := eng.Finalize()
	wantPolicy := map[int]string{1: "default", 2: "default", 3: "tight", 4: "tight"}
	for _, c := range tr.Cycles {
		if c.Policy != wantPolicy[c.Day] {
			t.Fatalf("day %d ran under %q, want %q (reload must never land mid-cycle)", c.Day, c.Policy, wantPolicy[c.Day])
		}
		if c.Reloaded != (c.Day == 3) {
			t.Fatalf("day %d reloaded=%v", c.Day, c.Reloaded)
		}
	}
}

// TestDeclarativeReloadMatchesWatcherPath pins the spec-scheduled
// reload (reloads section) to the same boundary semantics.
func TestDeclarativeReloadMatchesWatcherPath(t *testing.T) {
	tight := policy.DefaultSpec()
	tight.Name = "tight"
	tight.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(3)}}
	spec := minimalSpec("declared-reload")
	spec.Reloads = []ReloadSpec{{Day: 3, Policy: tight}}
	tr, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Cycles {
		want := "default"
		if c.Day >= 3 {
			want = "tight"
		}
		if c.Policy != want {
			t.Fatalf("day %d ran under %q, want %q", c.Day, c.Policy, want)
		}
	}
}

// TestEngineStepPastEndFails pins the step-wise API contract.
func TestEngineStepPastEndFails(t *testing.T) {
	eng, err := NewEngine(minimalSpec("short"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.StepDay(); err == nil {
		t.Fatal("StepDay past the end succeeded")
	}
}

// TestInjectedFailuresSurfaceInTrace pins the commit-failure injector's
// accounting: failures show up in both the exec line and the injection
// line, and the run completes.
func TestInjectedFailuresSurfaceInTrace(t *testing.T) {
	spec := minimalSpec("failures")
	spec.Faults = &FaultSpec{CommitFailureProb: 0.5}
	tr, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Final.Failures == 0 {
		t.Fatal("no failures injected at p=0.5")
	}
	var injected int64
	for _, c := range tr.Cycles {
		injected += c.Inject.Failures
		if int64(c.Exec.Failed) != c.Inject.Failures {
			t.Fatalf("day %d: exec failed=%d, injected=%d", c.Day, c.Exec.Failed, c.Inject.Failures)
		}
	}
	if injected != int64(tr.Final.Failures) {
		t.Fatalf("totals: %d != %d", injected, tr.Final.Failures)
	}
}

// TestCycleRecordParity pins the scenario trace to the cycle's one
// record: every CycleTrace carries exactly the CycleEvent its tracer
// stamped, on the worker pool and on the serial act phase alike.
func TestCycleRecordParity(t *testing.T) {
	for name, pool := range map[string]bool{"steady-state": true, "hot-partition-skew": false} {
		t.Run(name, func(t *testing.T) {
			spec, err := LoadFile(filepath.Join(scenariosDir(), name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			tracer := telemetry.NewTracer(spec.Days + 1)
			eng, err := NewEngineOpts(spec, EngineOptions{Tracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			emitted := map[int64]telemetry.CycleEvent{}
			for _, ev := range tracer.Recent(spec.Days + 1) {
				emitted[ev.Seq] = ev
			}
			if len(tr.Cycles) != spec.Days || len(emitted) != spec.Days {
				t.Fatalf("%d cycles, %d emitted events, want %d each", len(tr.Cycles), len(emitted), spec.Days)
			}
			for _, c := range tr.Cycles {
				if !reflect.DeepEqual(c.CycleEvent, emitted[c.Seq]) {
					t.Fatalf("day %d: trace event differs from the emitted one\ntrace:   %+v\nemitted: %+v",
						c.Day, c.CycleEvent, emitted[c.Seq])
				}
				if (c.Exec.Workers > 0) != pool || (c.SpendGBHr != nil) != pool {
					t.Fatalf("day %d: workers=%d spend=%v, want pool=%v", c.Day, c.Exec.Workers, c.SpendGBHr, pool)
				}
			}
		})
	}
}
