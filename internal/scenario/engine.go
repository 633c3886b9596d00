package scenario

import (
	"errors"
	"fmt"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
	"autocomp/internal/telemetry"
)

// ErrInjectedFailure is the error injected commit failures report.
var ErrInjectedFailure = errors.New("scenario: injected commit failure")

// Engine runs one scenario: it owns the virtual clock, the fleet
// substrate, and the spec-compiled service, and it accumulates the
// canonical trace. Build
// one with NewEngine and either call Run, or StepDay in a loop (the
// step-wise form hot-reload harnesses use) followed by Finalize.
//
// The engine is single-threaded and not safe for concurrent use.
type Engine struct {
	spec  *Spec
	opts  EngineOptions
	clock *sim.Clock
	fleet *fleet.Fleet
	model fleet.CompactionModel

	svc        *fleet.SpecService
	policyName string

	// pending is a staged policy reload, applied at the next cycle
	// boundary — never mid-cycle, mirroring the daemon's between-cycle
	// Watcher poll.
	pending     *policy.Spec
	pendingName string

	patterns []pattern
	dropRNG  *sim.RNG
	failRNG  *sim.RNG

	day   int
	inj   Injection
	trace *Trace
	err   error

	// OnCycle, when set, runs after each cycle's trace record is
	// appended — harnesses use it to inspect mid-run state or to stage a
	// reload from "inside" the run and assert it only lands on the next
	// cycle.
	OnCycle func(day int, rep *core.Report)
}

// EngineOptions carries host-side wiring that is not part of the
// scenario itself: how the run's telemetry is labeled and where its
// CycleEvents go. The zero value (no tenant, the process-wide default
// tracer) matches the pre-tenant behaviour.
type EngineOptions struct {
	// Tenant labels the run's CycleEvents (multi-tenant hosts).
	Tenant string
	// Tracer receives the run's CycleEvents; nil means the process-wide
	// telemetry.DefaultTracer().
	Tracer *telemetry.Tracer
}

// NewEngine validates spec and builds a ready-to-run engine at day 0.
func NewEngine(spec *Spec) (*Engine, error) {
	return NewEngineOpts(spec, EngineOptions{})
}

// NewEngineOpts is NewEngine with host-side telemetry wiring — a
// management plane uses it to stream each run's decision trace on its
// own tracer under its tenant's label. The options never influence a
// decision, so the canonical trace bytes are identical for any options.
func NewEngineOpts(spec *Spec, opts EngineOptions) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		spec:     spec,
		opts:     opts,
		clock:    sim.NewClock(),
		model:    fleet.DefaultModel(512 * storage.MB),
		patterns: buildPatterns(spec),
		dropRNG:  sim.Child(spec.Seed, "scenario/faults/drops"),
		failRNG:  sim.Child(spec.Seed, "scenario/faults/commit-failures"),
		trace:    &Trace{Scenario: spec.Name, Seed: spec.Seed, Days: spec.Days},
	}
	e.fleet = fleet.New(spec.fleetConfig(), e.clock)
	if err := e.setPolicy(spec.policySpec()); err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes every remaining day and returns the finalized trace.
func Run(spec *Spec) (*Trace, error) {
	e, err := NewEngine(spec)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Run executes the remaining days and finalizes the trace.
func (e *Engine) Run() (*Trace, error) {
	for e.day < e.spec.Days {
		if err := e.StepDay(); err != nil {
			return nil, err
		}
	}
	return e.Finalize(), nil
}

// Day returns the last completed simulation day.
func (e *Engine) Day() int { return e.day }

// Fleet exposes the substrate (inspection; mutating it mid-run breaks
// the trace's meaning, not its determinism).
func (e *Engine) Fleet() *fleet.Fleet { return e.fleet }

// Service exposes the current spec-compiled service.
func (e *Engine) Service() *fleet.SpecService { return e.svc }

// PolicyName returns the name of the policy the next cycle will run
// under (staged reloads included).
func (e *Engine) PolicyName() string {
	if e.pending != nil {
		return e.pendingName
	}
	return e.policyName
}

// ReloadPolicy stages a validated policy spec for hot reload. The swap
// happens at the next cycle boundary — a reload staged mid-cycle (e.g.
// from an OnCycle hook, or between StepDay calls the way autocompd
// polls its Watcher) never affects the cycle in flight.
func (e *Engine) ReloadPolicy(ps *policy.Spec) {
	e.pending = ps
	e.pendingName = ps.DisplayName()
}

// setPolicy compiles ps against the fleet and swaps the running service.
func (e *Engine) setPolicy(ps *policy.Spec) error {
	opts := fleet.SpecRunOptions{Tenant: e.opts.Tenant, Tracer: e.opts.Tracer}
	if f := e.spec.Faults; f != nil {
		opts.WriterCommitsPerHour = f.WriterCommitsPerHour
		if f.CommitFailureProb > 0 {
			prob := f.CommitFailureProb
			opts.WrapRunner = func(inner core.Runner) core.Runner {
				return &faultRunner{engine: e, inner: inner, prob: prob}
			}
		}
	}
	svc, err := e.fleet.ServiceFromSpec(ps, e.model, opts)
	if err != nil {
		return fmt.Errorf("scenario: compile policy %s: %w", ps.DisplayName(), err)
	}
	e.svc = svc
	e.policyName = ps.DisplayName()
	return nil
}

// faultRunner fails data-compaction jobs with the configured
// probability, drawing from the engine's dedicated failure stream so
// the injector never perturbs any other component's draws.
type faultRunner struct {
	engine *Engine
	inner  core.Runner
	prob   float64
}

// Run implements core.Runner.
func (r *faultRunner) Run(c *core.Candidate) compaction.Result {
	if r.engine.failRNG.Bernoulli(r.prob) {
		r.engine.inj.Failures++
		return compaction.Result{Table: c.Table.FullName(), Err: ErrInjectedFailure}
	}
	return r.inner.Run(c)
}

// StepDay simulates one day at the day's virtual timestamp, in this
// order: the fleet's organic growth, the workload patterns, scheduled
// table drops, a staged policy reload (cycle boundary), and the
// observe→decide→act cycle.
func (e *Engine) StepDay() error {
	if e.err != nil {
		return e.err
	}
	if e.day >= e.spec.Days {
		return fmt.Errorf("scenario: %s has only %d days", e.spec.Name, e.spec.Days)
	}
	if err := e.applyRestarts(e.day + 1); err != nil {
		e.err = err
		return e.err
	}
	e.day++
	day := e.day
	e.inj = Injection{}
	e.fleet.AdvanceDay()
	for _, p := range e.patterns {
		p.apply(e, day)
	}
	e.applyDrops(day)
	e.stageScheduledReload(day)
	e.runCycle(day)
	return e.err
}

// applyDrops executes the day's scheduled table-drop faults: each drop
// removes a randomly chosen live table mid-run.
func (e *Engine) applyDrops(day int) {
	if e.spec.Faults == nil {
		return
	}
	for _, d := range e.spec.Faults.Drops {
		if d.Day != day {
			continue
		}
		for i := 0; i < d.Tables; i++ {
			tables := e.fleet.Tables()
			if len(tables) == 0 {
				break
			}
			t := tables[e.dropRNG.Intn(len(tables))]
			name := t.FullName()
			if e.fleet.DropTable(name) {
				e.inj.Drops = append(e.inj.Drops, name)
			}
		}
	}
}

// stageScheduledReload stages the declarative reload pinned to day.
func (e *Engine) stageScheduledReload(day int) {
	for _, r := range e.spec.Reloads {
		if r.Day == day {
			e.ReloadPolicy(r.Policy.Clone())
		}
	}
}

// runCycle applies any staged reload (cycle boundary), runs one
// observe→decide→act cycle, records its trace, and checks the run
// invariants.
func (e *Engine) runCycle(day int) {
	reloaded := false
	if e.pending != nil {
		ps := e.pending
		e.pending = nil
		if err := e.setPolicy(ps); err != nil {
			e.err = err
			return
		}
		reloaded = true
	}
	cyc, err := e.svc.RunCycle()
	if err != nil {
		e.err = fmt.Errorf("scenario: day %d cycle: %w", day, err)
		return
	}
	e.trace.Cycles = append(e.trace.Cycles, e.cycleTrace(reloaded, cyc))
	// Telemetry snapshot, published after the trace record is sealed:
	// strictly passive, so the golden bytes cannot depend on it.
	mScenarioCycles.With(e.spec.Name).Inc()
	mScenarioDay.Set(float64(day))
	if reloaded {
		mScenarioReloads.Inc()
	}
	mScenarioInjectedFailures.Add(float64(e.inj.Failures))
	mScenarioDrops.Add(float64(len(e.inj.Drops)))
	if err := e.checkInvariants(cyc); err != nil {
		mScenarioInvariantFailures.Inc()
		e.err = fmt.Errorf("scenario: day %d invariants: %w", day, err)
		return
	}
	if e.OnCycle != nil {
		e.OnCycle(day, cyc.Report)
	}
}

// cycleTrace builds the day's canonical trace record around the
// cycle's emitted event.
func (e *Engine) cycleTrace(reloaded bool, cyc fleet.Cycle) CycleTrace {
	ct := CycleTrace{
		CycleEvent:    cyc.Event,
		Reloaded:      reloaded,
		Actions:       make([]int, len(core.ActionTypes())),
		SpendGBHr:     cyc.Stats.SpentGBHr,
		MakespanHours: cyc.Stats.Makespan.Hours(),
		QuotaMax:      e.quotaMax(),
		Inject:        e.inj,
	}
	for _, c := range cyc.Report.Decision.Selected {
		for int(c.Action) >= len(ct.Actions) {
			ct.Actions = append(ct.Actions, 0)
		}
		ct.Actions[int(c.Action)]++
		if len(ct.Top) < 8 {
			ct.Top = append(ct.Top, c.ID())
		}
	}
	return ct
}

// quotaMax returns the highest tenant quota utilization in the fleet.
func (e *Engine) quotaMax() float64 {
	var highest float64
	seen := map[string]bool{}
	for _, t := range e.fleet.Tables() {
		db := t.Database()
		if seen[db] {
			continue
		}
		seen[db] = true
		if u := e.fleet.QuotaUtilization(db); u > highest {
			highest = u
		}
	}
	return highest
}

// checkInvariants audits the cycle against the properties every
// scenario must uphold regardless of workload, faults, or policy:
//
//   - no candidate is selected for a table that left the lake;
//   - per-shard GBHr spend never exceeds the budget by more than one
//     job (the scheduler's admission guarantee: reservation-aware
//     admission bounds overshoot at one in-flight job per shard);
//   - the worker pool never runs more jobs than it has slots (the
//     per-table lease discipline itself is enforced by a panic inside
//     the scheduler);
//   - the incremental plane's retained candidate pool and stats cache
//     never reference a dropped table or a version beyond the table's
//     live one.
//
// A serial act phase reports no shard spend and no workers, so the two
// execution-plane checks hold vacuously there.
func (e *Engine) checkInvariants(cyc fleet.Cycle) error {
	var errs []error
	live := make(map[string]int64, e.fleet.TableCount())
	for _, t := range e.fleet.Tables() {
		live[t.FullName()] = t.Version()
	}
	for _, c := range cyc.Report.Decision.Selected {
		if _, ok := live[c.Table.FullName()]; !ok {
			errs = append(errs, fmt.Errorf("selected candidate %s references a dropped table", c.ID()))
		}
	}
	stats := cyc.Stats
	if budget := e.svc.Compiled.Sched.ShardBudgetGBHr; budget > 0 {
		var maxJob float64
		for _, cr := range cyc.Report.Results {
			if cr.Result.GBHr > maxJob {
				maxJob = cr.Result.GBHr
			}
		}
		for shard, spent := range stats.SpentGBHr {
			if spent > budget+maxJob+1e-6 {
				errs = append(errs, fmt.Errorf("shard %d spent %.3f GBHr, budget %.3f (+max job %.3f)",
					shard, spent, budget, maxJob))
			}
		}
	}
	if stats.MaxWorkersBusy > stats.Workers {
		errs = append(errs, fmt.Errorf("%d jobs in flight on %d workers", stats.MaxWorkersBusy, stats.Workers))
	}
	if feed := e.svc.Feed; feed != nil {
		for _, name := range feed.RetainedTables() {
			if _, ok := live[name]; !ok {
				errs = append(errs, fmt.Errorf("retained candidate pool references dropped table %s", name))
			}
		}
		for name, ver := range feed.Cache.MaxVersions() {
			liveVer, ok := live[name]
			if !ok {
				errs = append(errs, fmt.Errorf("stats cache references dropped table %s", name))
				continue
			}
			if ver > liveVer {
				errs = append(errs, fmt.Errorf("stats cache for %s at version %d beyond live version %d",
					name, ver, liveVer))
			}
		}
	}
	return errors.Join(errs...)
}

// Finalize computes the end-of-run summary and returns the trace.
// Step-wise drivers call it once after the last StepDay; Run does it
// for you.
func (e *Engine) Finalize() *Trace {
	f := FinalTrace{Fleet: e.fleet.Summary(), QuotaMax: e.quotaMax()}
	for i := range e.trace.Cycles {
		c := &e.trace.Cycles[i]
		f.FilesReduced += c.FilesReduced
		f.MetadataReduced += c.MetadataReduced
		f.ActualGBHr += c.GBHrSpent
		f.Conflicts += c.Exec.Conflicts
		f.Failures += c.Exec.Failed
		f.InjectedCommits += c.Inject.Commits
		f.Dropped += len(c.Inject.Drops)
	}
	e.trace.Final = f
	return e.trace
}

// Trace returns the trace accumulated so far (cycles only until
// Finalize runs).
func (e *Engine) Trace() *Trace { return e.trace }
