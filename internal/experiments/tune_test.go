package experiments

import (
	"reflect"
	"testing"

	"autocomp/internal/autotune"
	"autocomp/internal/scenario"
)

// TestTuneInlineCopiesMatchExamples pins tuneSpace and tuneScenario to
// the shipped files they mirror: the space's dimensions and effective
// objective weights, and the scenario apart from its description.
func TestTuneInlineCopiesMatchExamples(t *testing.T) {
	space, err := autotune.LoadSpaceFile("../../examples/tuning/space.json")
	if err != nil {
		t.Fatal(err)
	}
	inline := tuneSpace()
	if !reflect.DeepEqual(inline.Dimensions, space.Dimensions) {
		t.Errorf("tuneSpace dimensions\n got %+v\nwant %+v (space.json)", inline.Dimensions, space.Dimensions)
	}
	effective := func(w autotune.Weights) autotune.Weights {
		if len(w) == 0 {
			return autotune.DefaultWeights()
		}
		return w
	}
	if got, want := effective(inline.Objective), effective(space.Objective); !reflect.DeepEqual(got, want) {
		t.Errorf("tuneSpace objective weights %v, space.json %v", got, want)
	}

	sc, err := scenario.LoadFile("../../examples/scenarios/tuning-micro.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Description = ""
	if got := tuneScenario(); !reflect.DeepEqual(got, sc) {
		t.Errorf("tuneScenario\n got %+v\nwant %+v (tuning-micro.json)", got, sc)
	}
}

func TestTuneShape(t *testing.T) {
	res := runQuick(t, "tune").(TuneResult)
	if len(res.Samples) != 3 {
		t.Fatalf("samples = %d, want cfo/random/grid", len(res.Samples))
	}
	byOpt := map[string]TuneSample{}
	for _, s := range res.Samples {
		if s.Trials != res.Budget {
			t.Fatalf("%s: trials = %d, want the full budget %d", s.Optimizer, s.Trials, res.Budget)
		}
		if len(s.Trajectory) != s.Trials {
			t.Fatalf("%s: trajectory has %d points for %d trials", s.Optimizer, len(s.Trajectory), s.Trials)
		}
		byOpt[s.Optimizer] = s
	}
	// CFO warm-starts at the base spec, so its trajectory opens at
	// exactly the baseline and its winner can never be worse.
	cfo := byOpt["cfo"]
	if cfo.Trajectory[0] != 1.0 {
		t.Fatalf("cfo trajectory opens at %v, want the 1.0 warm start", cfo.Trajectory[0])
	}
	if cfo.BestComposite > 1.0 {
		t.Fatalf("cfo best composite %v worse than the baseline", cfo.BestComposite)
	}
	// The loop is deterministic: at the fixed test seed the hill-climb
	// strictly improves on the default spec.
	if cfo.ImprovementPct <= 0 {
		t.Fatalf("cfo improvement %v%%, want > 0", cfo.ImprovementPct)
	}
}
