package policy

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"autocomp/internal/core"
)

// Kind classifies the registry's component families.
type Kind string

// Component kinds.
const (
	KindGenerator Kind = "generator"
	KindFilter    Kind = "filter"
	KindTrait     Kind = "trait"
	KindSelector  Kind = "selector"
)

// Factory builds one component instance from its spec parameters. The
// Builder gives access to the environment and to nested component
// construction (e.g. for-action wraps an inner filter); the Args decoder
// tracks which parameters were consumed so unknown ones are rejected.
type Factory func(b *Builder, a *Args) (any, error)

// Registry maps {kind, name} to factories. The zero value is unusable;
// start from NewRegistry (a copy of the built-ins, extensible) or rely
// on the built-ins implicitly via a zero Env.
type Registry struct {
	byKind map[Kind]map[string]Factory
}

// NewRegistry returns a registry preloaded with the built-in components,
// which deployments may extend with their own factories (NFR1).
func NewRegistry() *Registry {
	r := &Registry{byKind: make(map[Kind]map[string]Factory)}
	for kind, m := range builtins.byKind {
		r.byKind[kind] = make(map[string]Factory, len(m))
		for name, f := range m {
			r.byKind[kind][name] = f
		}
	}
	return r
}

// Register adds a factory; registering an existing {kind, name} replaces
// it (deployments may shadow a built-in).
func (r *Registry) Register(kind Kind, name string, f Factory) {
	if r.byKind == nil {
		r.byKind = make(map[Kind]map[string]Factory)
	}
	m := r.byKind[kind]
	if m == nil {
		m = make(map[string]Factory)
		r.byKind[kind] = m
	}
	m[name] = f
}

// Names returns the registered names of one kind, sorted.
func (r *Registry) Names(kind Kind) []string {
	out := make([]string, 0, len(r.byKind[kind]))
	for name := range r.byKind[kind] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (r *Registry) lookup(kind Kind, name string) (Factory, bool) {
	f, ok := r.byKind[kind][name]
	return f, ok
}

// Args decodes one component's parameters, tracking consumed keys so
// finish() can reject unknown ones — a typo'd parameter must fail
// validation, not silently fall back to a default.
type Args struct {
	owner string
	raw   map[string]any
	used  map[string]bool
	errs  []string
}

func newArgs(kind Kind, c Component) *Args {
	return &Args{
		owner: fmt.Sprintf("%s %q", kind, c.Name),
		raw:   c.Params,
		used:  make(map[string]bool, len(c.Params)),
	}
}

func (a *Args) errf(format string, args ...any) {
	a.errs = append(a.errs, fmt.Sprintf(format, args...))
}

// Float reads a numeric parameter.
func (a *Args) Float(key string, def float64) float64 {
	v, ok := a.raw[key]
	if !ok {
		return def
	}
	a.used[key] = true
	f, ok := v.(float64)
	if !ok {
		a.errf("%s: param %q must be a number, got %T", a.owner, key, v)
		return def
	}
	return f
}

// Int reads an integer parameter.
func (a *Args) Int(key string, def int) int {
	return int(a.Int64(key, int64(def)))
}

// Int64 reads an integer parameter.
func (a *Args) Int64(key string, def int64) int64 {
	v, ok := a.raw[key]
	if !ok {
		return def
	}
	a.used[key] = true
	f, ok := v.(float64)
	if !ok {
		a.errf("%s: param %q must be an integer, got %T", a.owner, key, v)
		return def
	}
	if f != math.Trunc(f) {
		a.errf("%s: param %q must be an integer, got %v", a.owner, key, f)
		return def
	}
	return int64(f)
}

// Bool reads a boolean parameter.
func (a *Args) Bool(key string, def bool) bool {
	v, ok := a.raw[key]
	if !ok {
		return def
	}
	a.used[key] = true
	b, ok := v.(bool)
	if !ok {
		a.errf("%s: param %q must be a boolean, got %T", a.owner, key, v)
		return def
	}
	return b
}

// String reads a string parameter.
func (a *Args) String(key, def string) string {
	v, ok := a.raw[key]
	if !ok {
		return def
	}
	a.used[key] = true
	s, ok := v.(string)
	if !ok {
		a.errf("%s: param %q must be a string, got %T", a.owner, key, v)
		return def
	}
	return s
}

// Duration reads a duration parameter written as a string ("36h").
func (a *Args) Duration(key string, def time.Duration) time.Duration {
	v, ok := a.raw[key]
	if !ok {
		return def
	}
	a.used[key] = true
	s, ok := v.(string)
	if !ok {
		a.errf("%s: param %q must be a duration string like \"36h\", got %T", a.owner, key, v)
		return def
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		a.errf("%s: param %q: %v", a.owner, key, err)
		return def
	}
	return d
}

// Component reads a nested component parameter (a {name, params} object
// or bare string), for wrappers like for-action.
func (a *Args) Component(key string) (Component, bool) {
	v, ok := a.raw[key]
	if !ok {
		return Component{}, false
	}
	a.used[key] = true
	switch t := v.(type) {
	case string:
		return Component{Name: t}, true
	case map[string]any:
		var c Component
		name, _ := t["name"].(string)
		c.Name = name
		if p, ok := t["params"].(map[string]any); ok {
			c.Params = p
		}
		for k := range t {
			if k != "name" && k != "params" {
				a.errf("%s: param %q: unknown component field %q", a.owner, key, k)
			}
		}
		if c.Name == "" {
			a.errf("%s: param %q: nested component missing name", a.owner, key)
			return Component{}, false
		}
		return c, true
	default:
		a.errf("%s: param %q must be a component, got %T", a.owner, key, v)
		return Component{}, false
	}
}

// finish reports accumulated decode errors plus any parameter the
// factory never consumed.
func (a *Args) finish() error {
	var unknown []string
	for key := range a.raw {
		if !a.used[key] {
			unknown = append(unknown, key)
		}
	}
	sort.Strings(unknown)
	errs := a.errs
	for _, key := range unknown {
		errs = append(errs, fmt.Sprintf("%s: unknown param %q", a.owner, key))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("policy: %s", strings.Join(errs, "; "))
}

// ParseAction maps an action type's kebab-case name back to the type.
func ParseAction(s string) (core.ActionType, error) {
	for _, a := range core.ActionTypes() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown action %q", s)
}

// builtins is the shared built-in registry; NewRegistry copies it and
// the zero Env resolves against it directly.
var builtins = func() *Registry {
	r := &Registry{byKind: make(map[Kind]map[string]Factory)}

	// Generators (§4.1 work-unit scopes).
	r.Register(KindGenerator, "table-scope", func(*Builder, *Args) (any, error) {
		return core.TableScopeGenerator{}, nil
	})
	r.Register(KindGenerator, "partition-scope", func(*Builder, *Args) (any, error) {
		return core.PartitionScopeGenerator{}, nil
	})
	r.Register(KindGenerator, "hybrid-scope", func(*Builder, *Args) (any, error) {
		return core.HybridScopeGenerator{}, nil
	})
	r.Register(KindGenerator, "snapshot-scope", func(b *Builder, a *Args) (any, error) {
		window := a.Duration("window", 0)
		if window <= 0 {
			return nil, fmt.Errorf("policy: snapshot-scope requires a positive \"window\" duration")
		}
		return core.SnapshotScopeGenerator{Window: window, Now: b.Env.Now}, nil
	})

	// Filters (§3.3, §4.1 refinement points).
	r.Register(KindFilter, "min-table-age", func(b *Builder, a *Args) (any, error) {
		min := a.Duration("min", 0)
		if min <= 0 {
			return nil, fmt.Errorf("policy: min-table-age requires a positive \"min\" duration")
		}
		return core.MinTableAge{Min: min, Now: b.Env.Now}, nil
	})
	r.Register(KindFilter, "not-intermediate", func(*Builder, *Args) (any, error) {
		return core.NotIntermediate{}, nil
	})
	r.Register(KindFilter, "quiet-window", func(b *Builder, a *Args) (any, error) {
		min := a.Duration("min", 0)
		if min <= 0 {
			return nil, fmt.Errorf("policy: quiet-window requires a positive \"min\" duration")
		}
		return core.QuietWindow{Min: min, Now: b.Env.Now}, nil
	})
	r.Register(KindFilter, "candidate-quiet", func(b *Builder, a *Args) (any, error) {
		min := a.Duration("min", 0)
		if min <= 0 {
			return nil, fmt.Errorf("policy: candidate-quiet requires a positive \"min\" duration")
		}
		return core.CandidateQuiet{Min: min, Now: b.Env.Now}, nil
	})
	r.Register(KindFilter, "min-small-files", func(_ *Builder, a *Args) (any, error) {
		min := a.Int("min", 0)
		if min < 1 {
			return nil, fmt.Errorf("policy: min-small-files requires \"min\" >= 1")
		}
		return core.MinSmallFiles{Min: min}, nil
	})
	r.Register(KindFilter, "min-total-bytes", func(_ *Builder, a *Args) (any, error) {
		min := a.Int64("min_bytes", 0)
		if min < 1 {
			return nil, fmt.Errorf("policy: min-total-bytes requires \"min_bytes\" >= 1")
		}
		return core.MinTotalBytes{Min: min}, nil
	})
	r.Register(KindFilter, "min-metadata-reduction", func(_ *Builder, a *Args) (any, error) {
		min := a.Int("min", 0)
		if min < 1 {
			return nil, fmt.Errorf("policy: min-metadata-reduction requires \"min\" >= 1")
		}
		return core.MinMetadataReduction{Min: min}, nil
	})
	r.Register(KindFilter, "max-trait", func(b *Builder, a *Args) (any, error) {
		trait := a.String("trait", "")
		if trait == "" {
			return nil, fmt.Errorf("policy: max-trait requires a \"trait\" name")
		}
		if !b.traits.Computes(trait) {
			return nil, fmt.Errorf("policy: max-trait trait %q is not in the traits list", trait)
		}
		return core.MaxTraitValue{TraitName: trait, Slot: b.traits.Slot(trait), Max: a.Float("max", 0)}, nil
	})
	r.Register(KindFilter, "for-action", func(b *Builder, a *Args) (any, error) {
		action, err := ParseAction(a.String("action", ""))
		if err != nil {
			return nil, err
		}
		inner, ok := a.Component("filter")
		if !ok {
			return nil, fmt.Errorf("policy: for-action requires a nested \"filter\" component")
		}
		f, err := b.Filter(inner)
		if err != nil {
			return nil, err
		}
		return core.ForAction{Action: action, Inner: f}, nil
	})

	// Traits (§4.2), named after their core Name() values so spec
	// objectives, trait lists, and explain output all speak one
	// vocabulary.
	r.Register(KindTrait, "file_count_reduction", func(*Builder, *Args) (any, error) {
		return core.FileCountReduction{}, nil
	})
	r.Register(KindTrait, "relative_file_count_reduction", func(*Builder, *Args) (any, error) {
		return core.RelativeFileCountReduction{}, nil
	})
	r.Register(KindTrait, "compute_cost_gbhr", func(b *Builder, a *Args) (any, error) {
		return core.ComputeCost{
			ExecutorMemoryGB:    a.Float("executor_memory_gb", b.Env.ExecutorMemoryGB),
			RewriteBytesPerHour: a.Float("rewrite_bytes_per_hour", b.Env.RewriteBytesPerHour),
		}, nil
	})
	r.Register(KindTrait, "metadata_reduction", func(*Builder, *Args) (any, error) {
		return core.MetadataReduction{}, nil
	})
	r.Register(KindTrait, "file_entropy", func(b *Builder, a *Args) (any, error) {
		return core.FileEntropy{TargetFileSize: a.Int64("target_file_size", b.Env.TargetFileSize)}, nil
	})
	r.Register(KindTrait, "quota_pressure", func(*Builder, *Args) (any, error) {
		return core.QuotaPressure{}, nil
	})
	r.Register(KindTrait, "delta_file_debt", func(*Builder, *Args) (any, error) {
		return core.DeltaFileDebt{}, nil
	})
	r.Register(KindTrait, "layout_debt_bytes", func(*Builder, *Args) (any, error) {
		return core.LayoutDebt{}, nil
	})
	r.Register(KindTrait, "access_frequency", func(*Builder, *Args) (any, error) {
		return core.AccessFrequency{}, nil
	})

	// Selectors (§4.3).
	r.Register(KindSelector, "all", func(*Builder, *Args) (any, error) {
		return core.SelectAll{}, nil
	})
	r.Register(KindSelector, "top-k", func(_ *Builder, a *Args) (any, error) {
		k := a.Int("k", 0)
		if k < 1 {
			return nil, fmt.Errorf("policy: top-k requires \"k\" >= 1")
		}
		return core.TopK{K: k}, nil
	})
	r.Register(KindSelector, "budget", func(_ *Builder, a *Args) (any, error) {
		budget := a.Float("budget_gbhr", 0)
		if budget <= 0 {
			return nil, fmt.Errorf("policy: budget selector requires a positive \"budget_gbhr\"")
		}
		return core.BudgetSelector{BudgetGBHr: budget, MaxK: a.Int("max_k", 0)}, nil
	})

	return r
}()
