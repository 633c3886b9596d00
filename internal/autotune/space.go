// Package autotune is AutoComp's closed-loop policy tuning subsystem:
// it composes the declarative policy plane (internal/policy), the
// deterministic scenario engine (internal/scenario), and the black-box
// optimizers of internal/tuner into the §6.3 loop the paper runs with
// MLOS driving FLAML — perturb a policy spec, replay workloads, score
// the outcome, hill-climb.
//
// A Space declares which Spec fields are tunable and maps each trial's
// parameter vector back onto a concrete spec (Decode) and a spec back
// onto a vector (Encode), so the seed optimizers search bare
// tuner.Params and never learn what a policy is. Every decoded spec is
// validated through policy.Compile before it is run; invalid points
// score as failed trials, never crashes. The evaluation harness (Run)
// replays scenarios on virtual time with sim.Child-derived trial seeds,
// so a tune is as deterministic as a golden trace: same seed, space,
// scenarios, and budget — byte-identical trial log and winner spec, at
// any worker count.
package autotune

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"autocomp/internal/policy"
	"autocomp/internal/tuner"
)

// Dimension is one tunable axis of a Space. Numeric dimensions carry a
// [Min, Max] range (searched in log space when Log is set, for knobs
// spanning orders of magnitude); choice dimensions enumerate component
// names instead and encode as the choice index.
type Dimension struct {
	// Field names the policy.Spec knob this dimension perturbs; see
	// docs/tuning.md for the catalog ("execution.workers",
	// "selector.budget_gbhr", "objectives.<trait>", "generator", ...).
	Field string  `json:"field"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Log   bool    `json:"log,omitempty"`
	// Choices makes this an enum dimension over component names.
	Choices []string `json:"choices,omitempty"`
}

// Space declares a search space over policy.Spec fields plus the score
// weighting used to collapse the multi-objective trace score into the
// scalar the optimizer minimizes.
type Space struct {
	Name        string      `json:"name,omitempty"`
	Description string      `json:"description,omitempty"`
	Dimensions  []Dimension `json:"dimensions"`
	// Objective weights the composite score's components (small_files,
	// write_amp, gbhr, makespan, conflicts). Empty means DefaultWeights;
	// weights are normalized to sum 1.
	Objective Weights `json:"objective,omitempty"`
}

// ParseSpace decodes a space from JSON under policy.DecodeStrict's
// rules: unknown fields and trailing data are rejected.
func ParseSpace(b []byte) (*Space, error) {
	var s Space
	if err := policy.DecodeStrict(b, &s); err != nil {
		return nil, fmt.Errorf("autotune: parse space: %w", err)
	}
	return &s, nil
}

// LoadSpaceFile parses a space from a JSON file.
func LoadSpaceFile(path string) (*Space, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}
	s, err := ParseSpace(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Marshal renders the space as indented JSON (the on-disk format).
func (s *Space) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fieldKind classifies catalog entries.
type fieldKind int

const (
	kindFloat fieldKind = iota
	kindInt
	kindChoice
)

// fieldDef is one entry of the tunable-field catalog: how to read and
// write the knob on a spec, the structural requirement the base spec
// must meet, and the legal floor for integer knobs.
type fieldDef struct {
	kind  fieldKind
	floor float64
	// check verifies the base spec has the structure the knob needs.
	check func(s *policy.Spec) error
	get   func(s *policy.Spec) (float64, error)
	set   func(s *policy.Spec, v float64)
	// getS/setS replace get/set for choice dimensions.
	getS func(s *policy.Spec) (string, error)
	setS func(s *policy.Spec, c string)
	// weight marks MOOP objective-weight dimensions, which decode with a
	// simplex renormalization pass (see Decode).
	weight bool
}

// selectorParam builds a fieldDef for a float param of a named selector.
func selectorParam(selName, param string) fieldDef {
	return fieldDef{
		kind: kindFloat,
		check: func(s *policy.Spec) error {
			if s.Selector == nil || s.Selector.Name != selName {
				return fmt.Errorf("base spec selector is not %q", selName)
			}
			return nil
		},
		get: func(s *policy.Spec) (float64, error) {
			v, ok := s.Selector.Params[param].(float64)
			if !ok {
				return 0, fmt.Errorf("selector param %q is not a number", param)
			}
			return v, nil
		},
		set: func(s *policy.Spec, v float64) {
			if s.Selector.Params == nil {
				s.Selector.Params = map[string]any{}
			}
			s.Selector.Params[param] = v
		},
	}
}

// need returns a check that requires a spec section to be present.
func need(section string, present func(*policy.Spec) bool) func(*policy.Spec) error {
	return func(s *policy.Spec) error {
		if !present(s) {
			return fmt.Errorf("base spec has no %s section", section)
		}
		return nil
	}
}

func needMaint(s *policy.Spec) bool { return s.Maintenance != nil }
func needExec(s *policy.Spec) bool  { return s.Execution != nil }
func needTrig(s *policy.Spec) bool  { return s.Trigger != nil }

// lookupField resolves a dimension's field name in the catalog.
// "objectives.<trait>" resolves dynamically to that trait's MOOP weight.
func lookupField(field string) (fieldDef, error) {
	if trait, ok := strings.CutPrefix(field, "objectives."); ok {
		if trait == "" {
			return fieldDef{}, errors.New("objectives. needs a trait name")
		}
		return fieldDef{
			kind:   kindFloat,
			weight: true,
			check: func(s *policy.Spec) error {
				if s.QuotaAdaptive {
					return errors.New("quota-adaptive specs have no static weights to tune")
				}
				for _, o := range s.Objectives {
					if o.Trait.Name == trait {
						return nil
					}
				}
				return fmt.Errorf("base spec has no objective on trait %q", trait)
			},
			get: func(s *policy.Spec) (float64, error) {
				for _, o := range s.Objectives {
					if o.Trait.Name == trait {
						return o.Weight, nil
					}
				}
				return 0, fmt.Errorf("no objective on trait %q", trait)
			},
			set: func(s *policy.Spec, v float64) {
				for i := range s.Objectives {
					if s.Objectives[i].Trait.Name == trait {
						s.Objectives[i].Weight = v
					}
				}
			},
		}, nil
	}
	switch field {
	case "selector.budget_gbhr":
		return selectorParam("budget", "budget_gbhr"), nil
	case "selector.k":
		d := selectorParam("top-k", "k")
		d.kind = kindInt
		d.floor = 1
		return d, nil
	case "threshold.min":
		return fieldDef{
			kind:  kindFloat,
			check: need("threshold", func(s *policy.Spec) bool { return s.Threshold != nil }),
			get:   func(s *policy.Spec) (float64, error) { return s.Threshold.Min, nil },
			set:   func(s *policy.Spec, v float64) { s.Threshold.Min = v },
		}, nil
	case "maintenance.retain_snapshots":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("maintenance", needMaint),
			get:   func(s *policy.Spec) (float64, error) { return float64(s.Maintenance.RetainSnapshots), nil },
			set:   func(s *policy.Spec, v float64) { s.Maintenance.RetainSnapshots = int(v) },
		}, nil
	case "maintenance.checkpoint_every_versions":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("maintenance", needMaint),
			get: func(s *policy.Spec) (float64, error) {
				return float64(s.Maintenance.CheckpointEveryVersions), nil
			},
			set: func(s *policy.Spec, v float64) { s.Maintenance.CheckpointEveryVersions = int64(v) },
		}, nil
	case "maintenance.min_manifest_surplus":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("maintenance", needMaint),
			get:   func(s *policy.Spec) (float64, error) { return float64(s.Maintenance.MinManifestSurplus), nil },
			set:   func(s *policy.Spec, v float64) { s.Maintenance.MinManifestSurplus = int(v) },
		}, nil
	case "execution.workers":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("execution", needExec),
			get:   func(s *policy.Spec) (float64, error) { return float64(s.Execution.Workers), nil },
			set:   func(s *policy.Spec, v float64) { s.Execution.Workers = int(v) },
		}, nil
	case "execution.shards":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("execution", needExec),
			get:   func(s *policy.Spec) (float64, error) { return float64(s.Execution.Shards), nil },
			set:   func(s *policy.Spec, v float64) { s.Execution.Shards = int(v) },
		}, nil
	case "execution.shard_budget_gbhr":
		return fieldDef{
			kind:  kindFloat,
			check: need("execution", needExec),
			get:   func(s *policy.Spec) (float64, error) { return s.Execution.ShardBudgetGBHr, nil },
			set:   func(s *policy.Spec, v float64) { s.Execution.ShardBudgetGBHr = v },
		}, nil
	case "execution.decide_shards":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("execution", needExec),
			get:   func(s *policy.Spec) (float64, error) { return float64(s.Execution.DecideShards), nil },
			set:   func(s *policy.Spec, v float64) { s.Execution.DecideShards = int(v) },
		}, nil
	case "trigger.every_commits":
		return fieldDef{
			kind: kindInt, floor: 1,
			// every_commits may create the trigger section: tuning can
			// discover that a full-scan pipeline is better off
			// incremental.
			check: func(*policy.Spec) error { return nil },
			get: func(s *policy.Spec) (float64, error) {
				if s.Trigger == nil {
					return 0, errors.New("spec has no trigger section")
				}
				return float64(s.Trigger.EveryCommits), nil
			},
			set: func(s *policy.Spec, v float64) {
				if s.Trigger == nil {
					s.Trigger = &policy.TriggerSpec{}
				}
				s.Trigger.EveryCommits = int64(v)
			},
		}, nil
	case "trigger.bytes_written":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("trigger", needTrig),
			get:   func(s *policy.Spec) (float64, error) { return float64(s.Trigger.BytesWritten), nil },
			set:   func(s *policy.Spec, v float64) { s.Trigger.BytesWritten = int64(v) },
		}, nil
	case "trigger.reconcile_every":
		return fieldDef{
			kind: kindInt, floor: 1,
			check: need("trigger", needTrig),
			get:   func(s *policy.Spec) (float64, error) { return float64(s.Trigger.ReconcileEvery), nil },
			set:   func(s *policy.Spec, v float64) { s.Trigger.ReconcileEvery = int(v) },
		}, nil
	case "generator":
		return fieldDef{
			kind: kindChoice,
			check: func(s *policy.Spec) error {
				if len(s.Generators) != 1 {
					return fmt.Errorf("generator choice needs exactly one base generator, spec has %d", len(s.Generators))
				}
				return nil
			},
			getS: func(s *policy.Spec) (string, error) {
				if len(s.Generators) != 1 {
					return "", errors.New("spec does not have exactly one generator")
				}
				return s.Generators[0].Name, nil
			},
			setS: func(s *policy.Spec, c string) { s.Generators = []policy.Component{policy.C(c)} },
		}, nil
	}
	return fieldDef{}, fmt.Errorf("unknown tunable field %q", field)
}

// Validate checks the space against the base spec it will perturb:
// every dimension must resolve in the catalog, meet its field's
// structural requirement on the base, and carry a sane range. The base
// spec must itself encode cleanly (choice dims require the base value
// among the choices), so a tune can warm-start from it.
func (s *Space) Validate(base *policy.Spec) error {
	if s == nil {
		return errors.New("autotune: nil space")
	}
	if base == nil {
		return errors.New("autotune: nil base spec")
	}
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("autotune: "+format, args...))
	}
	if len(s.Dimensions) == 0 {
		fail("space has no dimensions")
	}
	seen := map[string]bool{}
	for i, d := range s.Dimensions {
		where := fmt.Sprintf("dimensions[%d] (%s)", i, d.Field)
		if seen[d.Field] {
			fail("%s: duplicate field", where)
			continue
		}
		seen[d.Field] = true
		def, err := lookupField(d.Field)
		if err != nil {
			fail("%s: %v", where, err)
			continue
		}
		if err := def.check(base); err != nil {
			fail("%s: %v", where, err)
			continue
		}
		if def.kind == kindChoice {
			if len(d.Choices) < 2 {
				fail("%s: choice dimension needs >= 2 choices", where)
			}
			if d.Min != 0 || d.Max != 0 || d.Log {
				fail("%s: choice dimension must not set min/max/log", where)
			}
			cur, err := def.getS(base)
			if err != nil {
				fail("%s: %v", where, err)
				continue
			}
			if choiceIndex(d.Choices, cur) < 0 {
				fail("%s: base value %q not among choices", where, cur)
			}
			continue
		}
		if len(d.Choices) > 0 {
			fail("%s: numeric dimension must not set choices", where)
		}
		if d.Min >= d.Max {
			fail("%s: min %v must be < max %v", where, d.Min, d.Max)
		}
		if d.Log && d.Min <= 0 {
			fail("%s: log dimension needs min > 0", where)
		}
		if d.Min < def.floor {
			fail("%s: min %v below the field's floor %v", where, d.Min, def.floor)
		}
		if def.weight && d.Min < 0 {
			fail("%s: objective weights must be >= 0", where)
		}
	}
	if err := s.Objective.validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func choiceIndex(choices []string, v string) int {
	for i, c := range choices {
		if c == v {
			return i
		}
	}
	return -1
}

// Params maps the space onto the optimizer's bare dimensions, in
// declaration order. Choice dimensions search the index range [0, n).
func (s *Space) Params() []tuner.Param {
	out := make([]tuner.Param, 0, len(s.Dimensions))
	for _, d := range s.Dimensions {
		p := tuner.Param{Name: d.Field, Min: d.Min, Max: d.Max, Log: d.Log}
		if len(d.Choices) > 0 {
			p.Min, p.Max, p.Log = 0, float64(len(d.Choices)), false
		}
		out = append(out, p)
	}
	return out
}

// quantize maps a raw optimizer coordinate onto the dimension's lattice:
// clamp into range, round integer knobs, floor-index choices. Weight
// dimensions only floor at zero: their [Min, Max] is the optimizer's
// search box, not a hard constraint, because the simplex
// renormalization that follows may scale a weight outside the box —
// and clamping the scaled value would break Decode's idempotence
// (Decode(Encode(Decode(v))) must equal Decode(v)).
func (d Dimension) quantize(def fieldDef, v float64) float64 {
	if def.weight {
		if v < 0 {
			return 0
		}
		return v
	}
	if def.kind == kindChoice {
		idx := int(math.Floor(v))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(d.Choices) {
			idx = len(d.Choices) - 1
		}
		return float64(idx)
	}
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	if def.kind == kindInt {
		v = math.Round(v)
		if v < def.floor {
			v = def.floor
		}
	}
	return v
}

// Decode maps an optimizer parameter vector onto a concrete policy
// spec: clone the base, quantize and apply every dimension, then
// renormalize the MOOP weight simplex if any weight dimension was
// tuned (static weights must sum to 1; the tuned weights are scaled to
// fill whatever mass the untuned objectives leave). Decode is
// idempotent on its own output: Decode(Encode(Decode(v))) ==
// Decode(v).
func (s *Space) Decode(base *policy.Spec, params map[string]float64) (*policy.Spec, error) {
	out := base.Clone()
	var weightDims []Dimension
	for _, d := range s.Dimensions {
		def, err := lookupField(d.Field)
		if err != nil {
			return nil, err
		}
		v, ok := params[d.Field]
		if !ok {
			return nil, fmt.Errorf("autotune: params missing dimension %q", d.Field)
		}
		q := d.quantize(def, v)
		if def.kind == kindChoice {
			def.setS(out, d.Choices[int(q)])
			continue
		}
		def.set(out, q)
		if def.weight {
			weightDims = append(weightDims, d)
		}
	}
	if len(weightDims) > 0 {
		renormalizeWeights(out, weightDims)
	}
	return out, nil
}

// renormalizeWeights scales the tuned objective weights so the full
// weight vector sums to 1 again: the untuned objectives keep their base
// weights and the tuned ones share the remaining mass in proportion to
// their raw coordinates. Scaling by a common factor preserves the
// relative importance the optimizer expressed, and the map is
// idempotent, which is what makes Decode∘Encode the identity on decoded
// specs.
func renormalizeWeights(s *policy.Spec, dims []Dimension) {
	tuned := map[string]bool{}
	for _, d := range dims {
		tuned[strings.TrimPrefix(d.Field, "objectives.")] = true
	}
	var fixed, raw float64
	for _, o := range s.Objectives {
		if tuned[o.Trait.Name] {
			raw += o.Weight
		} else {
			fixed += o.Weight
		}
	}
	remaining := 1 - fixed
	if remaining < 0 {
		remaining = 0
	}
	// A raw sum already on the simplex (to well within the MOOP
	// validator's 1e-6 tolerance) is left untouched: scaling by the
	// ~1.0 correction factor would drift the low bits and re-decoding
	// an encoded spec must be a bit-exact no-op.
	if math.Abs(raw-remaining) <= 1e-9*math.Max(1, remaining) {
		return
	}
	for i := range s.Objectives {
		if !tuned[s.Objectives[i].Trait.Name] {
			continue
		}
		if raw > 0 {
			s.Objectives[i].Weight *= remaining / raw
		} else {
			s.Objectives[i].Weight = remaining / float64(len(dims))
		}
	}
}

// Encode maps a spec onto the optimizer's parameter vector by reading
// every dimension's current value. Encoding the base spec yields the
// warm-start point a tune begins from.
func (s *Space) Encode(spec *policy.Spec) (map[string]float64, error) {
	out := make(map[string]float64, len(s.Dimensions))
	for _, d := range s.Dimensions {
		def, err := lookupField(d.Field)
		if err != nil {
			return nil, err
		}
		if def.kind == kindChoice {
			cur, err := def.getS(spec)
			if err != nil {
				return nil, fmt.Errorf("autotune: encode %s: %w", d.Field, err)
			}
			idx := choiceIndex(d.Choices, cur)
			if idx < 0 {
				return nil, fmt.Errorf("autotune: encode %s: value %q not among choices", d.Field, cur)
			}
			out[d.Field] = float64(idx)
			continue
		}
		v, err := def.get(spec)
		if err != nil {
			return nil, fmt.Errorf("autotune: encode %s: %w", d.Field, err)
		}
		out[d.Field] = v
	}
	return out, nil
}
