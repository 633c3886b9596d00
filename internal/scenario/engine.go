package scenario

import (
	"errors"
	"fmt"
	"os"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/telemetry"
)

// ErrInjectedFailure is the error injected commit failures report.
var ErrInjectedFailure = errors.New("scenario: injected commit failure")

// Engine runs one scenario: it drives a fleet.Lake day by day, layers
// the scenario's patterns and faults onto it, and accumulates the
// canonical trace. Build one with NewEngine and either call Run, or
// StepDay in a loop (the step-wise form hot-reload harnesses use)
// followed by Finalize.
//
// The engine is single-threaded and not safe for concurrent use.
type Engine struct {
	spec    *Spec
	runOpts fleet.SpecRunOptions
	lake    *fleet.Lake
	// storage replaces every policy's storage section: nil (memory), or
	// the run's own temp store when restarts are scheduled.
	storage *policy.StorageSpec

	// pending is a staged policy reload, applied at the next cycle
	// boundary — never mid-cycle, mirroring the daemon's between-cycle
	// Watcher poll.
	pending *policy.Spec

	patterns []pattern
	dropRNG  *sim.RNG
	failRNG  *sim.RNG

	inj   Injection
	trace *Trace
	err   error
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
		runOpts:  fleet.SpecRunOptions{Tenant: opts.Tenant, Tracer: opts.Tracer},
		patterns: buildPatterns(spec),
		dropRNG:  sim.Child(spec.Seed, "scenario/faults/drops"),
		failRNG:  sim.Child(spec.Seed, "scenario/faults/commit-failures"),
		trace:    &Trace{Scenario: spec.Name, Seed: spec.Seed, Days: spec.Days},
	}
	if f := spec.Faults; f != nil {
		e.runOpts.WriterCommitsPerHour = f.WriterCommitsPerHour
		if f.CommitFailureProb > 0 {
			prob := f.CommitFailureProb
			e.runOpts.WrapRunner = func(inner core.Runner) core.Runner {
				return &faultRunner{engine: e, inner: inner, prob: prob}
			}
		}
		if len(f.Restarts) > 0 {
			dir, err := os.MkdirTemp("", "scenario-restart-*")
			if err != nil {
				return nil, fmt.Errorf("scenario: restart store: %w", err)
			}
			e.storage = &policy.StorageSpec{Backend: policy.StorageBackendLog, Root: dir}
		}
	}
	ps := spec.policySpec()
	lake, err := fleet.OpenLake(spec.Name, spec.fleetConfig(), e.runPolicy(ps), e.runOpts)
	if err != nil {
		e.removeStore()
		return nil, fmt.Errorf("scenario: compile policy %s: %w", ps.DisplayName(), err)
	}
	e.lake = lake
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
	for e.lake.Day() < e.spec.Days {
		if err := e.StepDay(); err != nil {
			return nil, err
		}
	}
	return e.Finalize(), nil
}

// ReloadPolicy stages a validated policy spec for hot reload. The swap
// happens at the next cycle boundary — a reload staged between StepDay
// calls (the way autocompd polls its Watcher) never affects a cycle
// already run.
func (e *Engine) ReloadPolicy(ps *policy.Spec) {
	e.pending = ps
}

// runPolicy returns a copy of ps whose storage section is the run's
// own: a scenario never reads or writes a store its policy names.
func (e *Engine) runPolicy(ps *policy.Spec) *policy.Spec {
	ps = ps.Clone()
	ps.Storage = e.storage
	return ps
}

// removeStore deletes the run's restart store, if it has one.
func (e *Engine) removeStore() {
	if e.storage != nil {
		os.RemoveAll(e.storage.Root)
	}
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
// order: a scheduled kill/restart, a staged or scheduled policy reload
// (cycle boundary), the fleet's organic growth, the workload patterns,
// scheduled table drops, and the observe→decide→act cycle. A failed
// day ends the run.
func (e *Engine) StepDay() error {
	if e.err != nil {
		return e.err
	}
	day := e.lake.Day() + 1
	if day > e.spec.Days {
		return fmt.Errorf("scenario: %s has only %d days", e.spec.Name, e.spec.Days)
	}
	if e.err = e.stepDay(day); e.err != nil {
		e.removeStore()
	}
	return e.err
}

// stepDay runs day; any error it returns ends the run.
func (e *Engine) stepDay(day int) error {
	if e.spec.restartsOn(day) {
		if err := e.restart(); err != nil {
			return err
		}
	}
	for _, r := range e.spec.Reloads {
		if r.Day == day {
			e.pending = r.Policy
		}
	}
	reloaded := e.pending != nil
	if reloaded {
		ps := e.pending
		e.pending = nil
		if err := e.lake.SetPolicy(e.runPolicy(ps)); err != nil {
			return fmt.Errorf("scenario: compile policy %s: %w", ps.DisplayName(), err)
		}
	}
	e.inj = Injection{}
	cyc, err := e.lake.Step(func(f *fleet.Fleet) {
		for _, p := range e.patterns {
			p.apply(f, &e.inj, day)
		}
		e.applyDrops(f, day)
	})
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
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
		return fmt.Errorf("scenario: day %d invariants: %w", day, err)
	}
	return nil
}

// restart performs a scheduled kill/restart fault: the running lake is
// dropped and reopened from the run's store, the way a daemon tenant
// boots. The patterns' and injectors' streams and the trace live in the
// engine, so they carry on across the restart.
func (e *Engine) restart() error {
	day := e.lake.Day()
	lake, err := fleet.OpenLake(e.spec.Name, e.spec.fleetConfig(), e.lake.Spec(), e.runOpts)
	if err != nil {
		return fmt.Errorf("scenario: restart: %w", err)
	}
	if lake.Day() != day {
		return fmt.Errorf("scenario: restart resumed at day %d, want %d", lake.Day(), day)
	}
	e.lake = lake
	return nil
}

// applyDrops executes the day's scheduled table-drop faults: each drop
// removes a randomly chosen live table mid-run.
func (e *Engine) applyDrops(f *fleet.Fleet, day int) {
	if e.spec.Faults == nil {
		return
	}
	for _, d := range e.spec.Faults.Drops {
		if d.Day != day {
			continue
		}
		for i := 0; i < d.Tables; i++ {
			tables := f.Tables()
			if len(tables) == 0 {
				break
			}
			t := tables[e.dropRNG.Intn(len(tables))]
			name := t.FullName()
			if f.DropTable(name) {
				e.inj.Drops = append(e.inj.Drops, name)
			}
		}
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
	f := e.lake.Fleet()
	var highest float64
	seen := map[string]bool{}
	for _, t := range f.Tables() {
		db := t.Database()
		if seen[db] {
			continue
		}
		seen[db] = true
		if u := f.QuotaUtilization(db); u > highest {
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
	f, svc := e.lake.Fleet(), e.lake.Service()
	live := make(map[string]int64, f.TableCount())
	for _, t := range f.Tables() {
		live[t.FullName()] = t.Version()
	}
	for _, c := range cyc.Report.Decision.Selected {
		if _, ok := live[c.Table.FullName()]; !ok {
			errs = append(errs, fmt.Errorf("selected candidate %s references a dropped table", c.ID()))
		}
	}
	stats := cyc.Stats
	if budget := svc.Compiled.Sched.ShardBudgetGBHr; budget > 0 {
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
	if feed := svc.Feed; feed != nil {
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

// Finalize computes the end-of-run summary, removes the run's restart
// store and returns the trace. Step-wise drivers call it once after the
// last StepDay; Run does it for you.
func (e *Engine) Finalize() *Trace {
	e.removeStore()
	f := FinalTrace{Fleet: e.lake.Fleet().Summary(), QuotaMax: e.quotaMax()}
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
