package autotune

import (
	"bytes"
	"strings"
	"testing"

	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario"
)

// microScenario is a tiny inline workload for harness tests.
func microScenario(name string, tables int) *scenario.Spec {
	return &scenario.Spec{
		Name: name,
		Seed: 7,
		Days: 3,
		Fleet: scenario.FleetSpec{
			InitialTables: tables,
			Databases:     3,
		},
		Faults: &scenario.FaultSpec{WriterCommitsPerHour: 40},
	}
}

// microSpace tunes execution width and budget on the default spec.
func microSpace() *Space {
	return &Space{
		Name: "micro",
		Dimensions: []Dimension{
			{Field: "selector.budget_gbhr", Min: 8, Max: 65536, Log: true},
			{Field: "execution.workers", Min: 1, Max: 32},
		},
	}
}

func runTune(t *testing.T, cfg Config) (*Result, []byte) {
	t.Helper()
	var log bytes.Buffer
	cfg.TrialLog = &log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, log.Bytes()
}

// TestTuneDeterministicAcrossWorkers pins the acceptance criterion:
// the same tune seed, space, scenario set, and budget produce
// byte-identical trial logs and winner specs at any worker count, for
// both the sequential (CFO) and the batch-parallel (random) paths.
func TestTuneDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-optimizer worker sweep; the CI quick job covers the loop via scripts/smoke_tune.sh")
	}
	scenarios := []*scenario.Spec{microScenario("micro-a", 40), microScenario("micro-b", 60)}
	for _, optimizer := range []string{"cfo", "random"} {
		var logs [][]byte
		var winners [][]byte
		for _, workers := range []int{1, 4, 13} {
			res, log := runTune(t, Config{
				Space:     microSpace(),
				Scenarios: scenarios,
				Optimizer: optimizer,
				Budget:    6,
				Seed:      3,
				Workers:   workers,
			})
			w, err := res.Winner.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			logs = append(logs, log)
			winners = append(winners, w)
		}
		for i := 1; i < len(logs); i++ {
			if !bytes.Equal(logs[0], logs[i]) {
				t.Fatalf("%s: trial log differs between worker counts:\n%s\nvs\n%s", optimizer, logs[0], logs[i])
			}
			if !bytes.Equal(winners[0], winners[i]) {
				t.Fatalf("%s: winner spec differs between worker counts", optimizer)
			}
		}
		// And across repeat runs at the same worker count (seed stability).
		res, log := runTune(t, Config{
			Space: microSpace(), Scenarios: scenarios, Optimizer: optimizer, Budget: 6, Seed: 3, Workers: 4,
		})
		if !bytes.Equal(logs[0], log) {
			t.Fatalf("%s: repeat run differs", optimizer)
		}
		if err := CheckTrialLog(bytes.NewReader(log)); err != nil {
			t.Fatalf("%s: trial log fails its own schema check: %v", optimizer, err)
		}
		if res.Report.Trials != 6 {
			t.Fatalf("%s: trials = %d, want 6", optimizer, res.Report.Trials)
		}
	}
}

// TestTuneWarmStartsFromBase pins the closed loop's anchor: CFO's first
// trial is the base spec itself, so its composite is exactly 1.0 and
// the winner can never be worse than the baseline.
func TestTuneWarmStartsFromBase(t *testing.T) {
	res, _ := runTune(t, Config{
		Space:     microSpace(),
		Scenarios: []*scenario.Spec{microScenario("micro", 40)},
		Budget:    4,
		Seed:      1,
	})
	first := res.Records[0]
	if first.Invalid != "" {
		t.Fatalf("warm-start trial invalid: %s", first.Invalid)
	}
	if first.Composite != 1.0 {
		t.Fatalf("warm-start composite = %v, want exactly 1.0", first.Composite)
	}
	if res.Report.BestComposite > 1.0 {
		t.Fatalf("best composite %v worse than the baseline", res.Report.BestComposite)
	}
	if first.Params["execution.workers"] != 8 || first.Params["selector.budget_gbhr"] != 50*1024 {
		t.Fatalf("warm-start params = %v, want the base spec's", first.Params)
	}
}

// TestTunedBeatsDefault is the acceptance criterion's closed-loop
// proof on a shipped scenario: a micro-budget tune of the shipped
// space strictly improves the composite score over DefaultSpec on
// examples/scenarios/tuning-micro.json, and the provenance report
// carries a consistent trajectory.
func TestTunedBeatsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget tune; the CI quick job covers it via scripts/smoke_tune.sh")
	}
	sc, err := scenario.LoadFile("../../examples/scenarios/tuning-micro.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := LoadSpaceFile("../../examples/tuning/space.json")
	if err != nil {
		t.Fatal(err)
	}
	res, log := runTune(t, Config{
		Space:     sp,
		Scenarios: []*scenario.Spec{sc},
		Budget:    8,
		Seed:      1,
	})
	rep := res.Report
	if rep.BestComposite >= 1.0 {
		t.Fatalf("tuned composite %v does not strictly beat the default's 1.0", rep.BestComposite)
	}
	if rep.ImprovementPct <= 0 {
		t.Fatalf("improvement %v%%, want > 0", rep.ImprovementPct)
	}
	// The winner compiles cleanly against the evaluation environment.
	if err := policy.Validate(res.Winner, fleet.ValidationEnv()); err != nil {
		t.Fatalf("winner does not compile: %v", err)
	}
	// The trajectory is the best-so-far series: monotone non-increasing
	// once valid, ending at the best composite.
	if len(rep.Trajectory) != rep.Trials {
		t.Fatalf("trajectory has %d points for %d trials", len(rep.Trajectory), rep.Trials)
	}
	last := rep.Trajectory[0]
	for i, v := range rep.Trajectory {
		if v > last {
			t.Fatalf("trajectory regressed at %d: %v -> %v", i, last, v)
		}
		last = v
	}
	if last != rep.BestComposite {
		t.Fatalf("trajectory ends at %v, best is %v", last, rep.BestComposite)
	}
	if len(rep.WinnerDiff) == 0 {
		t.Fatal("winner diff empty: the winner is the base spec")
	}
	if err := CheckTrialLog(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	if res.Winner.Name != "default-tuned" {
		t.Fatalf("winner name = %q", res.Winner.Name)
	}
}

// TestInvalidPointsScoreAsFailures drives the optimizer into a corner
// of the space that does not compile (an unregistered generator) and
// asserts the tune survives: the bad trial records as invalid, the
// winner comes from the valid corner.
func TestInvalidPointsScoreAsFailures(t *testing.T) {
	sp := &Space{Dimensions: []Dimension{
		{Field: "generator", Choices: []string{"table-scope", "no-such-generator"}},
	}}
	// The 5-point grid over [0,2) lands on raw 0, 0.5, 1.0 — the third
	// point is the first to floor to the invalid choice index 1.
	res, log := runTune(t, Config{
		Base:      policy.DefaultSpec(),
		Space:     sp,
		Scenarios: []*scenario.Spec{microScenario("micro", 40)},
		Optimizer: "grid",
		Budget:    3,
		Seed:      1,
	})
	if res.Report.Trials != 3 {
		t.Fatalf("trials = %d", res.Report.Trials)
	}
	if res.Report.Invalid != 1 {
		t.Fatalf("invalid = %d, want 1", res.Report.Invalid)
	}
	var invalid *TrialRecord
	for i := range res.Records {
		if res.Records[i].Invalid != "" {
			invalid = &res.Records[i]
		}
	}
	if invalid == nil {
		t.Fatal("no invalid record")
	}
	if !strings.Contains(invalid.Invalid, "no-such-generator") {
		t.Fatalf("invalid reason %q does not name the bad component", invalid.Invalid)
	}
	if invalid.Composite != 0 || len(invalid.Scenarios) != 0 {
		t.Fatal("invalid trial carries scores")
	}
	if len(res.Winner.Generators) != 1 || res.Winner.Generators[0].Name != "table-scope" {
		t.Fatalf("winner picked the invalid corner: %+v", res.Winner.Generators)
	}
	if err := CheckTrialLog(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
}

// TestTuneFailsWhenNothingValidates covers the all-invalid corner.
func TestTuneFailsWhenNothingValidates(t *testing.T) {
	// Three choices but a budget of 2: the grid never reaches the only
	// valid generator at index 2, so every trial fails validation.
	sp := &Space{Dimensions: []Dimension{
		{Field: "generator", Choices: []string{"bogus-a", "bogus-b", "table-scope"}},
	}}
	_, err := Run(Config{
		Space:     sp,
		Base:      policy.DefaultSpec(),
		Scenarios: []*scenario.Spec{microScenario("micro", 40)},
		Optimizer: "grid",
		Budget:    2,
		Seed:      1,
	})
	if err == nil || !strings.Contains(err.Error(), "no valid trials") {
		t.Fatalf("err = %v, want no-valid-trials", err)
	}
}

func TestCheckTrialLogRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"malformed":      "not json\n",
		"gap in numbers": `{"trial":2,"params":{"x":1},"invalid":"nope"}` + "\n",
		"no params":      `{"trial":1,"invalid":"nope"}` + "\n",
		"zero composite": `{"trial":1,"params":{"x":1},"scenarios":[{"scenario":"s","seed":1,"score":{},"composite":0}]}` + "\n",
		"best regressed": `{"trial":1,"params":{"x":1},"scenarios":[{"scenario":"s","seed":1,"score":{},"composite":1}],"composite":1,"best":1}` + "\n" +
			`{"trial":2,"params":{"x":1},"scenarios":[{"scenario":"s","seed":1,"score":{},"composite":2}],"composite":2,"best":2}` + "\n",
	}
	for name, log := range cases {
		if err := CheckTrialLog(strings.NewReader(log)); err == nil {
			t.Errorf("%s: passed", name)
		}
	}
}
