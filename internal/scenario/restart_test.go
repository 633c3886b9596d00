package scenario

import (
	"os"
	"strings"
	"testing"

	"autocomp/internal/policy"
)

// restartSpec builds the compositional scenario the restart battery
// runs: burst + backfill patterns (both own RNG streams that must carry
// on across a restart), table drops and injected commit failures (the
// scenario-side fault streams), live writer commits racing the
// execution plane, and a mid-run policy reload (recovery must reopen
// the lake under the reloaded policy, not the base one).
func restartSpec(restarts []RestartSpec) *Spec {
	reload := policy.DefaultSpec()
	reload.Name = "tight-topk"
	reload.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(5)}}
	return &Spec{
		Name: "kill-restart",
		Seed: 21,
		Days: 8,
		Fleet: FleetSpec{
			InitialTables:  120,
			Databases:      6,
			TablesPerMonth: 30,
		},
		Workload: []PatternSpec{
			{Kind: KindBurst, FromDay: 2, ToDay: 7, EveryDays: 2, TablesFraction: 0.1, Commits: 12, FilesPerCommit: 10},
			{Kind: KindBackfill, Day: 5, Database: "db001", Commits: 60, FilesPerCommit: 20},
		},
		Faults: &FaultSpec{
			WriterCommitsPerHour: 40,
			CommitFailureProb:    0.1,
			Drops:                []DropSpec{{Day: 4, Tables: 2}},
			Restarts:             restarts,
		},
		Reloads: []ReloadSpec{{Day: 3, Policy: reload}},
	}
}

// TestPersistScenarioRestartParity is the recovery acceptance check: a
// run whose lake is killed and reopened from its store — twice, once
// before and once after the policy reload — emits a canonical trace
// byte-identical to the uninterrupted run's. Restarts are invisible.
func TestPersistScenarioRestartParity(t *testing.T) {
	clean, err := Run(restartSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := Run(restartSpec([]RestartSpec{{Day: 3}, {Day: 6}}))
	if err != nil {
		t.Fatal(err)
	}
	if diff := DiffTraces(clean.Marshal(), restarted.Marshal()); diff != nil {
		t.Fatalf("restarted run diverged from uninterrupted run:\n%s", joinLines(diff))
	}
}

// TestPersistScenarioRestartEveryDay stresses the persist/reopen path
// itself: restarting at the start of every eligible day still matches
// the clean trace.
func TestPersistScenarioRestartEveryDay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode runs the two-restart parity test only")
	}
	spec := restartSpec(nil)
	var every []RestartSpec
	for d := 2; d <= spec.Days; d++ {
		every = append(every, RestartSpec{Day: d})
	}
	clean, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := Run(restartSpec(every))
	if err != nil {
		t.Fatal(err)
	}
	if diff := DiffTraces(clean.Marshal(), restarted.Marshal()); diff != nil {
		t.Fatalf("restart-every-day run diverged:\n%s", joinLines(diff))
	}
}

// TestPersistScenarioRestartValidation pins the restart-specific spec
// rules: day bounds, ordering, and the trigger-policy exclusion.
func TestPersistScenarioRestartValidation(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"day-one", func(s *Spec) {
			s.Faults = &FaultSpec{Restarts: []RestartSpec{{Day: 1}}}
		}, "restarts[0]"},
		{"past-end", func(s *Spec) {
			s.Faults = &FaultSpec{Restarts: []RestartSpec{{Day: 9}}}
		}, "restarts[0]"},
		{"unordered", func(s *Spec) {
			s.Faults = &FaultSpec{Restarts: []RestartSpec{{Day: 4}, {Day: 3}}}
		}, "strictly ascending"},
		{"trigger-base", func(s *Spec) {
			s.Faults = &FaultSpec{Restarts: []RestartSpec{{Day: 3}}}
			s.Policy = policy.DefaultSpec()
			s.Policy.Trigger = &policy.TriggerSpec{EveryCommits: 1}
		}, "trigger"},
		{"trigger-reload", func(s *Spec) {
			s.Faults = &FaultSpec{Restarts: []RestartSpec{{Day: 3}}}
			p := policy.DefaultSpec()
			p.Trigger = &policy.TriggerSpec{EveryCommits: 1}
			s.Reloads = append(s.Reloads[:0], ReloadSpec{Day: 2, Policy: p})
		}, "trigger"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := restartSpec(nil)
			tc.edit(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestScenarioIgnoresPolicyStorage guards that a scenario never reads or
// writes a store its own policy names: with the base and reload
// policies naming a log root, two runs print the uninterrupted run's
// trace and the root stays empty. With restarts scheduled the run
// persists to its own temp store, which is gone when the run finishes
// or fails.
func TestScenarioIgnoresPolicyStorage(t *testing.T) {
	root, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	clean, err := Run(restartSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	named := &policy.StorageSpec{Backend: policy.StorageBackendLog, Root: root}
	for _, restarts := range [][]RestartSpec{nil, {{Day: 3}, {Day: 6}}} {
		spec := restartSpec(restarts)
		spec.Policy = policy.DefaultSpec()
		spec.Policy.Storage = named
		spec.Reloads[0].Policy.Storage = named
		for run := 1; run <= 2; run++ {
			tr, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if diff := DiffTraces(clean.Marshal(), tr.Marshal()); diff != nil {
				t.Fatalf("restarts %v, run %d diverged:\n%s", restarts, run, joinLines(diff))
			}
			expectEmptyDir(t, root)
			expectEmptyDir(t, tmp)
		}
	}

	eng, err := NewEngine(restartSpec([]RestartSpec{{Day: 3}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StepDay(); err != nil {
		t.Fatal(err)
	}
	eng.ReloadPolicy(&policy.Spec{Name: "bad", Generators: []policy.Component{{Name: "no-such-generator"}}})
	if err := eng.StepDay(); err == nil {
		t.Fatal("a reload that cannot compile did not fail the day")
	}
	expectEmptyDir(t, tmp)
}

func expectEmptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%s holds %d entries (first %s), want none", dir, len(entries), entries[0].Name())
	}
}
