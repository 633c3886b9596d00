package autocomp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

// decisionFingerprint and parityFleetConfig live in the shared testkit;
// these aliases keep the parity tests reading naturally.
var decisionFingerprint = testkit.DecisionFingerprint

func parityFleetConfig(seed int64) fleet.Config {
	return testkit.FleetConfig(seed, 300)
}

// TestDefaultSpecFileMatchesBuiltin pins the shipped specs built from
// the policy package's defaults to them: default.json is
// policy.DefaultSpec(), and data-only.json is the quota-adaptive
// policy.DefaultDataSpec under the default spec's 50 TBHr budget and
// execution plane. Editing one side without the other fails here.
func TestDefaultSpecFileMatchesBuiltin(t *testing.T) {
	dataOnly := policy.DefaultDataSpec(true)
	dataOnly.Selector = policy.DefaultSpec().Selector
	dataOnly.Execution = &policy.ExecutionSpec{Workers: 8, Shards: 4}
	for file, builtin := range map[string]*policy.Spec{
		"default.json":   policy.DefaultSpec(),
		"data-only.json": dataOnly,
	} {
		loaded, err := policy.LoadFile(filepath.Join("examples", "policies", file))
		if err != nil {
			t.Fatal(err)
		}
		if d := policy.Diff(loaded, builtin); len(d) != 0 {
			t.Errorf("%s diverges from its built-in spec:\n%s", file, strings.Join(d, "\n"))
		}
	}
}

// TestIncrementalSpecParity covers the observation plane: the same spec
// with an every-commit trigger section decides identically to its
// full-scan form, cycle after cycle, while both act on their own fleet.
func TestIncrementalSpecParity(t *testing.T) {
	model := testkit.Model()
	cfg := parityFleetConfig(5)
	cfg.DailyWriteProb = 0.3
	fFull := fleet.New(cfg, sim.NewClock())
	fIncr := fleet.New(cfg, sim.NewClock())

	fullSS, err := fFull.ServiceFromSpec(testkit.MaintenanceSpec(40), model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := testkit.MaintenanceSpec(40)
	spec.Trigger = &policy.TriggerSpec{EveryCommits: 1}
	incrSS, err := fIncr.ServiceFromSpec(spec, model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fullSS.Feed != nil || incrSS.Feed == nil {
		t.Fatal("only the trigger section may enable the observation plane")
	}

	for d := 1; d <= 6; d++ {
		fFull.AdvanceDay()
		fIncr.AdvanceDay()
		dFull, err := fullSS.Svc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		dIncr, err := incrSS.Svc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if fpFull, fpIncr := decisionFingerprint(dFull), decisionFingerprint(dIncr); fpFull != fpIncr {
			t.Fatalf("day %d: incremental decisions diverge\nfull scan:\n%s\nincremental:\n%s",
				d, testkit.Head(fpFull, 30), testkit.Head(fpIncr, 30))
		}
		if _, err := fullSS.Svc.Act(dFull); err != nil {
			t.Fatal(err)
		}
		if _, err := incrSS.Svc.Act(dIncr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHotReloadBetweenCycles exercises the acceptance flow end to end:
// a running fleet service is rebuilt from an edited spec file between
// cycles, and the new policy (a tighter selector) takes effect on the
// next decision.
func TestHotReloadBetweenCycles(t *testing.T) {
	model := testkit.Model()
	f := fleet.New(parityFleetConfig(2), sim.NewClock())

	dir := t.TempDir()
	path := filepath.Join(dir, "policy.json")
	writeSpec := func(s *policy.Spec) {
		b, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := policy.DefaultSpec()
	base.Execution = nil
	writeSpec(base)

	w, spec, err := policy.NewWatcher(path, f.PolicyEnv(model))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := f.ServiceFromSpec(spec, model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Cycle 1 under the budget selector: many tables selected.
	f.AdvanceDay()
	cyc, err := svc.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(cyc.Report.Decision.Selected) <= 2 {
		t.Fatalf("budget cycle selected %d, want > 2", len(cyc.Report.Decision.Selected))
	}

	// Edit the file between cycles: top-k 2.
	edited := policy.DefaultSpec()
	edited.Execution = nil
	edited.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(2)}}
	writeSpec(edited)
	newSpec, changed, err := w.Poll()
	if err != nil || !changed {
		t.Fatalf("poll = %v, %v", changed, err)
	}
	svc, err = f.ServiceFromSpec(newSpec, model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Cycle 2 runs under the new policy without restarting anything.
	f.AdvanceDay()
	cyc, err = svc.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(cyc.Report.Decision.Selected) != 2 {
		t.Fatalf("reloaded cycle selected %d, want 2", len(cyc.Report.Decision.Selected))
	}
}
