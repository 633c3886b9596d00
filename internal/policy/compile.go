package policy

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/decideshard"
	"autocomp/internal/maintenance"
	"autocomp/internal/scheduler"
	"autocomp/internal/storage"
)

// MaxShards bounds execution.shards and execution.decide_shards. The
// scheduler and the decide engine size per-shard slices from these
// counts every cycle, and tables hash onto shards modulo a uint32, so a
// count of 1<<32 would divide by zero.
const MaxShards = 1 << 16

// Env is the modeling environment components default their parameters
// from: the substrate's clock and the cost model's constants. A zero Env
// compiles (components fall back to zero defaults), but real deployments
// fill it so spec files can omit model constants.
type Env struct {
	// Now supplies virtual time to age/quiet components (nil means 0).
	Now func() time.Duration
	// TargetFileSize classifies small files (entropy trait default).
	TargetFileSize int64
	// ExecutorMemoryGB and RewriteBytesPerHour price GBHr (compute-cost
	// trait defaults, maintenance runner pricing).
	ExecutorMemoryGB    float64
	RewriteBytesPerHour float64
	// Registry resolves component names; nil means the built-ins.
	Registry *Registry
}

// StubEnv returns an Env with the production-shaped modeling defaults
// (512 MB target, 64 GB executors, 3 TB/h rewrite throughput), for
// validating specs without a live substrate.
func StubEnv() Env {
	return Env{
		TargetFileSize:      512 * storage.MB,
		ExecutorMemoryGB:    64,
		RewriteBytesPerHour: float64(3 * storage.TB),
	}
}

func (e Env) registry() *Registry {
	if e.Registry != nil {
		return e.Registry
	}
	return builtins
}

// Bindings are the substrate-specific pieces a spec cannot name: how to
// enumerate tables, observe them, and execute work. Catalog, when set,
// layers the control plane's stored table policies on top of the spec's
// own override patches.
type Bindings struct {
	Connector core.Connector
	// Observer observes data-compaction candidates (the maintenance
	// observer wraps it for metadata candidates).
	Observer core.Observer
	// Runner executes data-compaction candidates (nil for decide-only
	// pipelines; the maintenance runner wraps it).
	Runner core.Runner
	// Catalog, when set, contributes the top override layer and serves
	// per-table trigger policies to the changefeed.
	Catalog CatalogReader
}

// Compiled is a spec resolved into the configurations the runtime
// consumes.
type Compiled struct {
	// Spec is the compiled spec (as given).
	Spec *Spec
	// Core is the decision-pipeline configuration; pass to
	// core.NewService (wrapping with an incremental feed first when
	// Incremental is set).
	Core core.Config
	// HasExecution reports whether the spec enables the concurrent
	// execution plane; Sched is its configuration.
	HasExecution bool
	Sched        scheduler.Config
	// DecideShards is the sharded decide plane's shard count (0 or 1 =
	// serial decide). When > 1, Core.Decider is already attached to a
	// decideshard engine; consumers building an incremental feed should
	// pass the same count to changefeed.NewFeedSharded so the feed's
	// index stripes align with the decide shards.
	DecideShards int
	// Incremental reports whether the spec enables commit-event-driven
	// observation; Trigger is the base trigger policy, Triggers the
	// layered per-table resolver, and ReconcileEvery the full-scan
	// reconciliation interval.
	Incremental    bool
	Trigger        changefeed.TriggerPolicy
	Triggers       changefeed.PolicyFunc
	ReconcileEvery int
	// Maintenance is the base maintenance policy (zero when the spec is
	// data-only); Source resolves the layered per-table policies.
	Maintenance maintenance.Policy
	Source      *Source
	// Storage is the validated storage section (zero Backend means the
	// in-memory default; Backend "log" means the consumer should open an
	// lstlog store at Root and persist the lake).
	Storage StorageSpec
}

// Builder constructs components against an environment and registry;
// factories receive it for nested construction.
type Builder struct {
	Env Env
	reg *Registry
	// traits numbers the spec's trait list for the filters that read a
	// trait slot (nil until Compile has built the traits).
	traits *core.TraitSet
}

// NewBuilder returns a Builder over env's registry.
func NewBuilder(env Env) *Builder { return &Builder{Env: env, reg: env.registry()} }

func (b *Builder) build(kind Kind, c Component) (any, error) {
	if c.Name == "" {
		return nil, fmt.Errorf("policy: %s component missing name", kind)
	}
	f, ok := b.reg.lookup(kind, c.Name)
	if !ok {
		return nil, fmt.Errorf("policy: unknown %s %q (registered: %v)", kind, c.Name, b.reg.Names(kind))
	}
	a := newArgs(kind, c)
	v, err := f(b, a)
	// Surface parameter decode errors alongside the factory's own: a
	// mistyped parameter is the root cause of most factory failures.
	if ferr := a.finish(); err != nil || ferr != nil {
		return nil, errors.Join(err, ferr)
	}
	return v, nil
}

// Generator builds one generator component.
func (b *Builder) Generator(c Component) (core.Generator, error) {
	v, err := b.build(KindGenerator, c)
	if err != nil {
		return nil, err
	}
	return v.(core.Generator), nil
}

// Filter builds one filter component.
func (b *Builder) Filter(c Component) (core.Filter, error) {
	v, err := b.build(KindFilter, c)
	if err != nil {
		return nil, err
	}
	return v.(core.Filter), nil
}

// Trait builds one trait component.
func (b *Builder) Trait(c Component) (core.Trait, error) {
	v, err := b.build(KindTrait, c)
	if err != nil {
		return nil, err
	}
	return v.(core.Trait), nil
}

// Selector builds one selector component.
func (b *Builder) Selector(c Component) (core.Selector, error) {
	v, err := b.build(KindSelector, c)
	if err != nil {
		return nil, err
	}
	return v.(core.Selector), nil
}

// Validate checks a spec end to end — structure, component resolution,
// parameter names and types, objective weights — without binding it to a
// substrate. It returns every problem found, joined.
func Validate(s *Spec, env Env) error {
	_, err := Compile(s, env, Bindings{})
	return err
}

// Compile resolves a spec into runnable configuration: the core.Config
// for the decision pipeline (with maintenance wrapping when enabled),
// the scheduler.Config for the execution plane, and the changefeed
// trigger policy for the observation plane. Compilation collects every
// error rather than stopping at the first, so `lakectl policy validate`
// reports the full damage in one pass.
func Compile(s *Spec, env Env, b Bindings) (*Compiled, error) {
	if s == nil {
		return nil, errors.New("policy: nil spec")
	}
	bld := NewBuilder(env)
	var errs []error
	fail := func(err error) { errs = append(errs, err) }

	// Generator chain.
	var gens []core.Generator
	for _, c := range s.Generators {
		g, err := bld.Generator(c)
		if err != nil {
			fail(err)
			continue
		}
		gens = append(gens, g)
	}
	if len(s.Generators) == 0 && s.Maintenance == nil {
		fail(errors.New("policy: spec needs at least one generator (or a maintenance section for a metadata-only pipeline)"))
	}
	var gen core.Generator
	switch len(gens) {
	case 0:
	case 1:
		gen = gens[0]
	default:
		gen = core.MultiGenerator(gens)
	}

	// Traits, numbered before the filters that read their slots.
	if len(s.Traits) == 0 {
		fail(errors.New("policy: spec needs at least one trait"))
	}
	var traits []core.Trait
	listed := make(map[string]Component, len(s.Traits))
	for _, c := range s.Traits {
		t, err := bld.Trait(c)
		if err != nil {
			fail(err)
			continue
		}
		if _, dup := listed[t.Name()]; dup {
			fail(fmt.Errorf("policy: trait %q is listed twice in traits", t.Name()))
			continue
		}
		traits = append(traits, t)
		listed[t.Name()] = c
	}
	bld.traits, _ = core.NewTraitSet(traits) // names are unique by now
	// rankedTrait builds an objective or threshold trait: it must name a
	// listed trait, whose slot the ranker reads, and any params it gives
	// must be that entry's.
	rankedTrait := func(point string, c Component) (core.Trait, bool) {
		t, err := bld.Trait(c)
		if err != nil {
			fail(fmt.Errorf("%s: %w", point, err))
			return nil, false
		}
		l, ok := listed[t.Name()]
		switch {
		case !ok:
			fail(fmt.Errorf("policy: %s trait %q is not in the traits list", point, t.Name()))
		case len(c.Params) > 0 && !reflect.DeepEqual(c.Params, l.Params):
			fail(fmt.Errorf("policy: %s trait %q has params that differ from its traits entry, whose values the ranker reads", point, t.Name()))
		}
		return t, true
	}

	buildFilters := func(point string, cs []Component) []core.Filter {
		var out []core.Filter
		for _, c := range cs {
			f, err := bld.Filter(c)
			if err != nil {
				fail(fmt.Errorf("%s: %w", point, err))
				continue
			}
			out = append(out, f)
		}
		return out
	}
	pre := buildFilters("pre_filters", s.PreFilters)
	stats := buildFilters("stats_filters", s.StatsFilters)
	traitFs := buildFilters("trait_filters", s.TraitFilters)

	// Ranker: MOOP objectives or threshold.
	var ranker core.Ranker
	switch {
	case s.Threshold != nil && len(s.Objectives) > 0:
		fail(errors.New("policy: objectives and threshold are mutually exclusive"))
	case s.Threshold != nil:
		if t, ok := rankedTrait("threshold", s.Threshold.Trait); ok {
			ranker = core.ThresholdPolicy{Trait: t, Threshold: s.Threshold.Min}
		}
	case len(s.Objectives) > 0:
		objs := make([]core.Objective, 0, len(s.Objectives))
		for _, o := range s.Objectives {
			if t, ok := rankedTrait("objective", o.Trait); ok {
				objs = append(objs, core.Objective{Trait: t, Weight: o.Weight})
			}
		}
		r := core.MOOPRanker{Objectives: objs}
		if s.QuotaAdaptive {
			if len(objs) != 2 {
				fail(fmt.Errorf("policy: quota_adaptive needs exactly 2 objectives (benefit, cost), got %d", len(objs)))
			}
			r.DynamicWeights = core.QuotaAdaptiveWeights()
		}
		if len(objs) == len(s.Objectives) {
			if err := r.Validate(); err != nil {
				fail(err)
			}
		}
		ranker = r
	default:
		fail(errors.New("policy: spec needs a ranker (objectives or threshold)"))
	}

	// Selector, with its default.
	selComp := Component{Name: "all"}
	if s.Selector != nil {
		selComp = *s.Selector
	}
	selector, err := bld.Selector(selComp)
	if err != nil {
		fail(err)
	}

	out := &Compiled{Spec: s}
	out.Source = NewSource(s, b.Catalog)

	// Assemble the core config, wrapping for unified maintenance.
	cfg := core.Config{
		Connector:    b.Connector,
		Generator:    gen,
		PreFilters:   pre,
		StatsFilters: stats,
		TraitFilters: traitFs,
		Observer:     b.Observer,
		Traits:       traits,
		Ranker:       ranker,
		Selector:     selector,
		Runner:       b.Runner,
	}
	if s.Maintenance != nil {
		out.Maintenance = s.Maintenance.policy()
		cfg.Generator = maintenance.Generator{Data: gen, Policies: out.Source}
		cfg.Observer = maintenance.Observer{Base: b.Observer, Policies: out.Source}
		cfg.Runner = maintenance.Runner{
			Data:                b.Runner,
			Policies:            out.Source,
			ExecutorMemoryGB:    env.ExecutorMemoryGB,
			RewriteBytesPerHour: env.RewriteBytesPerHour,
		}
	}
	out.Core = cfg

	// Execution plane.
	if s.Execution != nil {
		ex := s.Execution
		if ex.Workers < 1 {
			fail(fmt.Errorf("policy: execution.workers must be >= 1, got %d", ex.Workers))
		}
		if ex.Shards > MaxShards {
			fail(fmt.Errorf("policy: execution.shards must be at most %d, got %d", MaxShards, ex.Shards))
		}
		if ex.DecideShards > MaxShards {
			fail(fmt.Errorf("policy: execution.decide_shards must be at most %d, got %d", MaxShards, ex.DecideShards))
		}
		if ex.DecideShards < 0 {
			fail(fmt.Errorf("policy: execution.decide_shards must be non-negative, got %d", ex.DecideShards))
		}
		if ex.DecideWorkers < 0 {
			fail(fmt.Errorf("policy: execution.decide_workers must be non-negative, got %d", ex.DecideWorkers))
		}
		if ex.DecideWorkers > 0 && ex.DecideShards <= 1 {
			fail(fmt.Errorf("policy: execution.decide_workers requires decide_shards > 1 (got decide_shards %d)", ex.DecideShards))
		}
		if ex.DecideShards > 1 {
			out.DecideShards = ex.DecideShards
			eng := decideshard.New(decideshard.Options{Shards: ex.DecideShards, Workers: ex.DecideWorkers})
			out.Core.Decider = eng.Decide
		}
		var staleness int64
		if ex.StalenessBound != nil {
			staleness = *ex.StalenessBound
		}
		out.HasExecution = true
		out.Sched = scheduler.Config{
			Workers:         ex.Workers,
			Shards:          ex.Shards,
			ShardBudgetGBHr: ex.ShardBudgetGBHr,
			StalenessBound:  staleness,
			MaxAttempts:     ex.MaxAttempts,
			RetryBase:       time.Duration(ex.RetryBase),
			RetryMax:        time.Duration(ex.RetryMax),
		}
	}

	// Observation plane.
	if s.Trigger != nil {
		tr := s.Trigger
		if tr.EveryCommits < 0 || tr.BytesWritten < 0 || tr.ReconcileEvery < 0 {
			fail(errors.New("policy: trigger fields must be non-negative"))
		}
		out.Incremental = true
		out.Trigger = changefeed.TriggerPolicy{
			EveryCommits: tr.EveryCommits,
			BytesWritten: tr.BytesWritten,
		}
		out.Triggers = out.Source.TriggerFor
		out.ReconcileEvery = tr.ReconcileEvery
	}

	// Storage backend.
	if st := s.Storage; st != nil {
		switch st.Backend {
		case StorageBackendMemory, "":
			if st.Root != "" || st.Fsync != "" {
				fail(errors.New("policy: storage.root/fsync only apply to the log backend"))
			}
		case StorageBackendLog:
			if st.Root == "" {
				fail(errors.New("policy: storage.root is required for the log backend"))
			}
			switch st.Fsync {
			case "", "none", "always":
			default:
				fail(fmt.Errorf("policy: storage.fsync must be \"none\" or \"always\", got %q", st.Fsync))
			}
			if s.Trigger != nil {
				fail(errors.New("policy: the log storage backend cannot be combined with a trigger section (incremental dirty state is not persisted across restart)"))
			}
		default:
			fail(fmt.Errorf("policy: storage.backend must be %q or %q, got %q", StorageBackendMemory, StorageBackendLog, st.Backend))
		}
		out.Storage = *st
	}

	// Override patches must still name resolvable values.
	validatePatch := func(scope string, p *Patch) {
		if p == nil {
			fail(fmt.Errorf("policy: %s: null override patch", scope))
			return
		}
		if p.Maintenance != nil && s.Maintenance == nil {
			fail(fmt.Errorf("policy: %s: maintenance override on a data-only spec", scope))
		}
		if p.Trigger != nil && s.Trigger == nil {
			fail(fmt.Errorf("policy: %s: trigger override on a spec without a trigger section (the patch would never be consulted)", scope))
		}
		if p.Trigger != nil && p.Trigger.ReconcileEvery != 0 {
			fail(fmt.Errorf("policy: %s: reconcile_every is fleet-wide and cannot be overridden per scope", scope))
		}
	}
	for db, p := range s.Databases {
		validatePatch("databases."+db, p)
	}
	for tbl, p := range s.Tables {
		validatePatch("tables."+tbl, p)
	}

	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}
