package autotune

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
)

// numericPool lists numeric catalog fields valid on DefaultSpec, with
// the tightest legal lower bound a random range may use.
var numericPool = []struct {
	field  string
	floor  float64
	hi     float64
	isInt  bool
	logOK  bool
	weight bool
}{
	{"selector.budget_gbhr", 1, 100000, false, true, false},
	{"execution.workers", 1, 64, true, false, false},
	{"execution.shards", 1, 32, true, false, false},
	{"execution.shard_budget_gbhr", 0, 5000, false, false, false},
	{"maintenance.retain_snapshots", 1, 50, true, false, false},
	{"maintenance.checkpoint_every_versions", 1, 500, true, false, false},
	{"maintenance.min_manifest_surplus", 1, 64, true, false, false},
	{"trigger.every_commits", 1, 100, true, false, false},
	{"objectives.file_count_reduction", 0, 1, false, false, true},
	{"objectives.metadata_reduction", 0, 1, false, false, true},
	{"objectives.compute_cost_gbhr", 0, 1, false, false, true},
}

// serialBase is DefaultSpec without its execution section: the serial
// act loop's pipeline, which randomSpace tunes half the time.
func serialBase() *policy.Spec {
	s := policy.DefaultSpec()
	s.Execution = nil
	return s
}

// randomSpace builds a valid space over a random subset of the catalog
// and returns it with the base it perturbs: DefaultSpec, or, half the
// time, serialBase with the execution dimensions dropped (and the
// generator choice added when none remain).
func randomSpace(rng *sim.RNG) (*Space, *policy.Spec) {
	sp := &Space{Name: "prop"}
	perm := rng.Perm(len(numericPool))
	n := 1 + rng.Intn(len(numericPool))
	for _, idx := range perm[:n] {
		f := numericPool[idx]
		span := f.hi - f.floor
		lo := f.floor + rng.Float64()*span*0.4
		hi := lo + 0.1 + rng.Float64()*(f.hi-lo)
		d := Dimension{Field: f.field, Min: lo, Max: hi}
		if f.isInt {
			d.Min, d.Max = math.Ceil(lo), math.Ceil(hi)+1
		}
		if f.logOK && d.Min > 0 && rng.Bernoulli(0.5) {
			d.Log = true
		}
		sp.Dimensions = append(sp.Dimensions, d)
	}
	if rng.Bernoulli(0.5) {
		sp.Dimensions = append(sp.Dimensions, Dimension{
			Field:   "generator",
			Choices: []string{"table-scope", "partition-scope", "hybrid-scope"},
		})
	}
	if !rng.Bernoulli(0.5) {
		return sp, policy.DefaultSpec()
	}
	dims := sp.Dimensions[:0]
	for _, d := range sp.Dimensions {
		if !strings.HasPrefix(d.Field, "execution.") {
			dims = append(dims, d)
		}
	}
	if len(dims) == 0 {
		dims = append(dims, Dimension{
			Field:   "generator",
			Choices: []string{"table-scope", "partition-scope", "hybrid-scope"},
		})
	}
	sp.Dimensions = dims
	return sp, serialBase()
}

// TestSpaceRoundTripProperty drives random spaces with random raw
// vectors (including out-of-range coordinates, to exercise clamping)
// and pins the mapper's algebra: Decode is total on the box, Encode
// inverts it (decode∘encode = id on decoded specs, encode∘decode = id
// on quantized vectors), and every encoded coordinate respects its
// dimension's bounds.
func TestSpaceRoundTripProperty(t *testing.T) {
	rng := sim.NewRNG(42)
	for iter := 0; iter < 300; iter++ {
		sp, base := randomSpace(rng)
		if err := sp.Validate(base); err != nil {
			t.Fatalf("iter %d: random space invalid: %v\nspace: %+v", iter, err, sp)
		}
		raw := map[string]float64{}
		for _, d := range sp.Dimensions {
			lo, hi := d.Min, d.Max
			if len(d.Choices) > 0 {
				lo, hi = 0, float64(len(d.Choices))
			}
			v := lo + rng.Float64()*(hi-lo)
			if rng.Bernoulli(0.2) {
				// Out-of-range coordinate: quantization must clamp.
				v = lo - 1 + rng.Float64()*(hi-lo+2)
			}
			raw[d.Field] = v
		}
		spec1, err := sp.Decode(base, raw)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		v1, err := sp.Encode(spec1)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		spec2, err := sp.Decode(base, v1)
		if err != nil {
			t.Fatalf("iter %d: re-decode: %v", iter, err)
		}
		b1, _ := spec1.Marshal()
		b2, _ := spec2.Marshal()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("iter %d: decode∘encode not identity:\nspace %+v\nraw %v\nquantized %v\nspec1:\n%s\nspec2:\n%s",
				iter, sp, raw, v1, b1, b2)
		}
		v2, err := sp.Encode(spec2)
		if err != nil {
			t.Fatalf("iter %d: re-encode: %v", iter, err)
		}
		for _, d := range sp.Dimensions {
			a, b := v1[d.Field], v2[d.Field]
			if a != b {
				t.Fatalf("iter %d: %s: encode∘decode not identity on quantized vector: %v vs %v", iter, d.Field, a, b)
			}
			def, _ := lookupField(d.Field)
			switch {
			case def.kind == kindChoice:
				if a != math.Trunc(a) || a < 0 || a >= float64(len(d.Choices)) {
					t.Fatalf("iter %d: %s: choice index %v outside [0,%d)", iter, d.Field, a, len(d.Choices))
				}
			case def.weight:
				if a < 0 {
					t.Fatalf("iter %d: %s: negative weight %v", iter, d.Field, a)
				}
			default:
				if a < d.Min || a > d.Max {
					t.Fatalf("iter %d: %s: %v outside [%v,%v]", iter, d.Field, a, d.Min, d.Max)
				}
				if def.kind == kindInt && a != math.Trunc(a) {
					t.Fatalf("iter %d: %s: int dim decoded to %v", iter, d.Field, a)
				}
			}
		}
		// Weight dims must leave a valid simplex behind: the compile
		// gate is the real assertion, run it on a sample of iterations.
		if iter%25 == 0 {
			if err := policy.Validate(spec1, fleet.ValidationEnv()); err != nil {
				t.Fatalf("iter %d: decoded spec does not compile: %v\n%s", iter, err, b1)
			}
		}
	}
}

func TestSpaceValidateRejects(t *testing.T) {
	base := policy.DefaultSpec()
	cases := []struct {
		name string
		sp   Space
	}{
		{"empty", Space{}},
		{"unknown field", Space{Dimensions: []Dimension{{Field: "no.such", Min: 1, Max: 2}}}},
		{"duplicate", Space{Dimensions: []Dimension{
			{Field: "execution.workers", Min: 1, Max: 4},
			{Field: "execution.workers", Min: 1, Max: 8},
		}}},
		{"min >= max", Space{Dimensions: []Dimension{{Field: "execution.workers", Min: 8, Max: 8}}}},
		{"log with min 0", Space{Dimensions: []Dimension{{Field: "execution.shard_budget_gbhr", Min: 0, Max: 10, Log: true}}}},
		{"below floor", Space{Dimensions: []Dimension{{Field: "execution.workers", Min: 0, Max: 8}}}},
		{"one choice", Space{Dimensions: []Dimension{{Field: "generator", Choices: []string{"table-scope"}}}}},
		{"choice with range", Space{Dimensions: []Dimension{{Field: "generator", Min: 1, Max: 2, Choices: []string{"table-scope", "partition-scope"}}}}},
		{"base not among choices", Space{Dimensions: []Dimension{{Field: "generator", Choices: []string{"partition-scope", "hybrid-scope"}}}}},
		{"numeric with choices", Space{Dimensions: []Dimension{{Field: "execution.workers", Min: 1, Max: 4, Choices: []string{"a", "b"}}}}},
		{"objective on missing trait", Space{Dimensions: []Dimension{{Field: "objectives.nope", Min: 0, Max: 1}}}},
		{"selector mismatch", Space{Dimensions: []Dimension{{Field: "selector.k", Min: 1, Max: 10}}}},
		{"missing threshold", Space{Dimensions: []Dimension{{Field: "threshold.min", Min: 0, Max: 1}}}},
		{"bad objective weights", Space{
			Dimensions: []Dimension{{Field: "execution.workers", Min: 1, Max: 4}},
			Objective:  Weights{"no_such_component": 1},
		}},
	}
	for _, tc := range cases {
		if err := tc.sp.Validate(base); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	// Control: a well-formed space validates.
	ok := Space{Dimensions: []Dimension{
		{Field: "selector.budget_gbhr", Min: 8, Max: 65536, Log: true},
		{Field: "execution.workers", Min: 1, Max: 32},
		{Field: "objectives.file_count_reduction", Min: 0.05, Max: 0.75},
	}}
	if err := ok.Validate(base); err != nil {
		t.Fatalf("control space rejected: %v", err)
	}
	// Structural checks read the base: quota-adaptive specs have no
	// static weights to tune.
	qa := policy.DefaultDataSpec(true)
	w := Space{Dimensions: []Dimension{{Field: "objectives.file_count_reduction", Min: 0, Max: 1}}}
	if err := w.Validate(qa); err == nil {
		t.Fatal("weight dim on quota-adaptive base validated")
	}
}

func TestDecodeQuantizes(t *testing.T) {
	base := policy.DefaultSpec()
	sp := &Space{Dimensions: []Dimension{
		{Field: "execution.workers", Min: 2, Max: 16},
		{Field: "selector.budget_gbhr", Min: 10, Max: 1000, Log: true},
	}}
	if err := sp.Validate(base); err != nil {
		t.Fatal(err)
	}
	spec, err := sp.Decode(base, map[string]float64{
		"execution.workers":    7.6, // rounds to 8
		"selector.budget_gbhr": 1e9, // clamps to 1000
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Execution.Workers != 8 {
		t.Fatalf("workers = %d, want 8", spec.Execution.Workers)
	}
	if got := spec.Selector.Params["budget_gbhr"].(float64); got != 1000 {
		t.Fatalf("budget = %v, want clamped 1000", got)
	}
	// The base spec is never mutated by a decode.
	if base.Execution.Workers != 8 || policy.DefaultSpec().Selector.Params["budget_gbhr"] != base.Selector.Params["budget_gbhr"] {
		t.Fatal("decode mutated the base spec")
	}
}

func TestWeightRenormalization(t *testing.T) {
	base := policy.DefaultSpec() // ΔF 0.5, ΔM 0.2, GBHr 0.3
	sp := &Space{Dimensions: []Dimension{
		{Field: "objectives.file_count_reduction", Min: 0.05, Max: 0.75},
		{Field: "objectives.compute_cost_gbhr", Min: 0.05, Max: 0.75},
	}}
	if err := sp.Validate(base); err != nil {
		t.Fatal(err)
	}
	spec, err := sp.Decode(base, map[string]float64{
		"objectives.file_count_reduction": 0.6,
		"objectives.compute_cost_gbhr":    0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Untouched ΔM keeps 0.2; the two tuned weights share the remaining
	// 0.8 in proportion (equal raws → 0.4 each).
	var sum float64
	for _, o := range spec.Objectives {
		sum += o.Weight
		if o.Trait.Name == "metadata_reduction" && o.Weight != 0.2 {
			t.Fatalf("untouched weight changed: %v", o.Weight)
		}
		if o.Trait.Name != "metadata_reduction" && math.Abs(o.Weight-0.4) > 1e-12 {
			t.Fatalf("tuned weight = %v, want 0.4", o.Weight)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
	// All-zero raws split the remaining mass evenly.
	spec, err = sp.Decode(base, map[string]float64{
		"objectives.file_count_reduction": 0,
		"objectives.compute_cost_gbhr":    0,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range spec.Objectives {
		if o.Trait.Name != "metadata_reduction" && math.Abs(o.Weight-0.4) > 1e-12 {
			t.Fatalf("zero-raw weight = %v, want 0.4", o.Weight)
		}
	}
	if err := policy.Validate(spec, fleet.ValidationEnv()); err != nil {
		t.Fatalf("renormalized spec does not compile: %v", err)
	}
}

func TestEncodeBaseIsWarmStart(t *testing.T) {
	base := policy.DefaultSpec()
	sp := &Space{Dimensions: []Dimension{
		{Field: "selector.budget_gbhr", Min: 8, Max: 65536, Log: true},
		{Field: "execution.workers", Min: 1, Max: 32},
		{Field: "objectives.file_count_reduction", Min: 0.05, Max: 0.75},
		{Field: "generator", Choices: []string{"table-scope", "partition-scope"}},
	}}
	if err := sp.Validate(base); err != nil {
		t.Fatal(err)
	}
	v, err := sp.Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"selector.budget_gbhr":            50 * 1024,
		"execution.workers":               8,
		"objectives.file_count_reduction": 0.5,
		"generator":                       0,
	}
	for k, w := range want {
		if v[k] != w {
			t.Fatalf("%s = %v, want %v", k, v[k], w)
		}
	}
	// Decoding the warm start reproduces the base pipeline exactly.
	spec, err := sp.Decode(base, v)
	if err != nil {
		t.Fatal(err)
	}
	if d := policy.Diff(base, spec); len(d) != 0 {
		t.Fatalf("warm-start decode differs from base: %v", d)
	}
}

func TestChoiceDimensionDecodes(t *testing.T) {
	base := policy.DefaultSpec()
	sp := &Space{Dimensions: []Dimension{
		{Field: "generator", Choices: []string{"table-scope", "hybrid-scope"}},
	}}
	if err := sp.Validate(base); err != nil {
		t.Fatal(err)
	}
	for raw, want := range map[float64]string{
		0: "table-scope", 0.99: "table-scope", 1: "hybrid-scope", 1.999: "hybrid-scope", 5: "hybrid-scope", -3: "table-scope",
	} {
		spec, err := sp.Decode(base, map[string]float64{"generator": raw})
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Generators) != 1 || spec.Generators[0].Name != want {
			t.Fatalf("raw %v: generators = %+v, want [%s]", raw, spec.Generators, want)
		}
	}
}

// TestSchedulerDimensionUnknown pins that a scheduler dimension fails
// validation as an unknown field on both bases: the act-phase scheduler
// is not a spec field, so it is not a tunable one either.
func TestSchedulerDimensionUnknown(t *testing.T) {
	sp := Space{Dimensions: []Dimension{{Field: "scheduler", Choices: []string{"sequential", "tables-parallel"}}}}
	for _, b := range []*policy.Spec{policy.DefaultSpec(), serialBase()} {
		if err := sp.Validate(b); err == nil || !strings.Contains(err.Error(), `unknown tunable field "scheduler"`) {
			t.Errorf("scheduler dimension: err = %v, want an unknown-field error", err)
		}
	}
}

func TestSpaceParseRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpace([]byte(`{"dimensions": [], "budget": 5}`)); err == nil {
		t.Fatal("unknown top-level field parsed")
	}
	if _, err := ParseSpace([]byte(`{"dimensions": [{"field": "x", "step": 3}]}`)); err == nil {
		t.Fatal("unknown dimension field parsed")
	}
}

func TestSpaceParseRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{`{"dimensions": []}`, ` junk`} {
		if _, err := ParseSpace([]byte(`{"dimensions": []}` + tail)); err == nil {
			t.Errorf("space followed by %q parsed", tail)
		}
	}
}

// Ensure the example space stays valid against the default spec — it is
// the quickstart artifact README points at.
func TestExampleSpaceValidates(t *testing.T) {
	sp, err := LoadSpaceFile("../../examples/tuning/space.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(policy.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Marshal(); err != nil {
		t.Fatal(err)
	}
	if got := len(sp.Params()); got != len(sp.Dimensions) {
		t.Fatalf("Params() has %d entries for %d dimensions", got, len(sp.Dimensions))
	}
}
