package fleet

import (
	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/scheduler"
	"autocomp/internal/telemetry"
)

// PolicyEnv returns the policy-compilation environment of this fleet:
// its clock and the compaction model's pricing constants, so specs can
// omit model parameters and inherit them.
func (f *Fleet) PolicyEnv(model CompactionModel) policy.Env {
	return policy.Env{
		Now:                 f.clock.Now,
		TargetFileSize:      model.TargetFileSize,
		ExecutorMemoryGB:    model.ExecutorMemoryGB,
		RewriteBytesPerHour: model.RewriteBytesPerHour,
	}
}

// PolicyBindings returns the substrate bindings a compiled spec runs
// against on this fleet: the aggregate-model connector, observer, and
// runner.
func (f *Fleet) PolicyBindings(model CompactionModel) policy.Bindings {
	return policy.Bindings{
		Connector: Connector{Fleet: f},
		Observer:  Observer{Fleet: f},
		Runner:    Runner{Fleet: f, Model: model},
	}
}

// SpecRunOptions carries the simulation-side knobs that are not policy
// (they describe the modeled world, not the pipeline).
type SpecRunOptions struct {
	// WriterCommitsPerHour is the fleet-wide rate of live writer commits
	// racing the compactor during execution windows (0 = quiet lake).
	WriterCommitsPerHour float64
	// WrapRunner, when set, wraps the substrate's data-compaction runner
	// before the spec compiles against it — fault injectors and
	// instrumentation hook in here. When the spec enables unified
	// maintenance, the wrapper sees only the data-compaction candidates
	// (the maintenance runner wraps the result for metadata actions).
	WrapRunner func(core.Runner) core.Runner
	// Tenant labels every CycleEvent the service emits — the tenant
	// identity in a multi-tenant daemon (empty for single-lake use).
	Tenant string
	// Tracer receives the service's CycleEvents; nil means the
	// process-wide telemetry.DefaultTracer(). Multi-tenant hosts give
	// each tenant (and each scenario run) its own tracer so decision
	// streams never interleave.
	Tracer *telemetry.Tracer
}

// SpecService is a pipeline built from a declarative policy spec: the
// decision service plus whichever planes the spec enabled — the
// incremental observation feed (trigger section) and the concurrent
// execution plane (execution section).
type SpecService struct {
	// Compiled is the resolved spec.
	Compiled *policy.Compiled
	// Svc is the decision pipeline.
	Svc *core.Service
	// Feed is the incremental observation plane (nil without a trigger
	// section).
	Feed *changefeed.Feed
	// Sched is the concurrent execution plane (nil without an execution
	// section; cycles then act serially).
	Sched *ScheduledService

	fleet *Fleet
	// tenant and tracer route the service's CycleEvents (SpecRunOptions).
	tenant string
	tracer *telemetry.Tracer
	// prevCache holds the stats-cache counters at the end of the last
	// cycle, so trace events carry per-cycle deltas.
	prevCache changefeed.CacheCounters
}

// ServiceFromSpec compiles a policy spec against this fleet and wires
// every plane the spec enables. It is the one way to build a fleet
// pipeline: data-only and unified maintenance, full-scan and
// incremental, serial and scheduled execution are all spec sections.
// Callers that must wrap a component or attach a decider before the
// service exists compile with policy.Compile against PolicyEnv and
// PolicyBindings and call core.NewService themselves.
func (f *Fleet) ServiceFromSpec(spec *policy.Spec, model CompactionModel, opts SpecRunOptions) (*SpecService, error) {
	bindings := f.PolicyBindings(model)
	if opts.WrapRunner != nil {
		bindings.Runner = opts.WrapRunner(bindings.Runner)
	}
	comp, err := policy.Compile(spec, f.PolicyEnv(model), bindings)
	if err != nil {
		return nil, err
	}
	out := &SpecService{Compiled: comp, fleet: f, tenant: opts.Tenant, tracer: opts.Tracer}
	if out.tracer == nil {
		out.tracer = telemetry.DefaultTracer()
	}
	cfg := comp.Core
	if comp.Incremental {
		cfg, out.Feed = f.IncrementalConfig(cfg, IncrOptions{
			Trigger:        comp.Trigger,
			Triggers:       comp.Triggers,
			ReconcileEvery: comp.ReconcileEvery,
			DecideShards:   comp.DecideShards,
		})
	} else {
		// The spec owns the fleet's changefeed attachment: compiling a
		// non-incremental spec detaches any previously attached feed, so
		// a hot reload away from incremental mode does not leave a stale
		// feed consuming (and accounting) every future commit event.
		f.AttachChangefeed(nil)
	}
	svc, err := core.NewService(cfg)
	if err != nil {
		return nil, err
	}
	out.Svc = svc
	if comp.HasExecution {
		out.Sched = f.ScheduleService(svc, model, SchedOptions{
			Workers:              comp.Sched.Workers,
			Shards:               comp.Sched.Shards,
			ShardBudgetGBHr:      comp.Sched.ShardBudgetGBHr,
			StalenessBound:       comp.Sched.StalenessBound,
			MaxAttempts:          comp.Sched.MaxAttempts,
			RetryBase:            comp.Sched.RetryBase,
			RetryMax:             comp.Sched.RetryMax,
			AgingRatePerHour:     comp.Sched.AgingRatePerHour,
			WriterCommitsPerHour: opts.WriterCommitsPerHour,
		})
	}
	return out, nil
}

// Cycle is the one record of a completed OODA cycle: the report, the
// act phase's execution summary, and the stamped decision-trace event.
// Every consumer — the daemon log, tenant snapshots, scenario traces —
// reads this record instead of re-deriving its own summary.
type Cycle struct {
	Report *core.Report
	// Stats summarizes the act phase. A serial act phase fills only the
	// outcome counts (no worker-pool fields, nil SpentGBHr).
	Stats scheduler.Stats
	// Event is the CycleEvent the cycle emitted, Seq included.
	Event telemetry.CycleEvent
}

// RunCycle performs one OODA cycle on whichever execution plane the
// spec configured — the worker pool when present, the serial act phase
// otherwise — and emits its telemetry.CycleEvent on the service's
// tracer: the decision trace autocompd logs, streams as JSONL, and
// serves on /statusz.
func (s *SpecService) RunCycle() (Cycle, error) {
	var cyc Cycle
	var err error
	if s.Sched != nil {
		cyc.Report, cyc.Stats, err = s.Sched.RunCycle()
	} else if cyc.Report, err = s.Svc.RunOnce(); err == nil {
		cyc.Stats = serialStats(cyc.Report)
	}
	if err != nil {
		return cyc, err
	}
	cyc.Event = s.tracer.Emit(s.cycleEvent(cyc.Report, cyc.Stats))
	return cyc, nil
}

// serialStats tallies a serial act phase's outcomes from its report.
func serialStats(rep *core.Report) scheduler.Stats {
	return scheduler.Stats{
		Done:       len(rep.Results) - rep.Skipped - rep.Errors - rep.Conflicts,
		Skipped:    rep.Skipped,
		Conflicted: rep.Conflicts,
		Failed:     rep.Errors,
		Conflicts:  rep.Conflicts,
	}
}

// cycleEvent assembles the cycle's decision-trace event from the
// report, the execution stats, the observation feed, and the substrate.
// It is passive: it reads state the cycle already produced and never
// mutates anything the pipeline consumes.
func (s *SpecService) cycleEvent(rep *core.Report, stats scheduler.Stats) telemetry.CycleEvent {
	d := rep.Decision
	ev := telemetry.CycleEvent{
		Day:    s.fleet.Day(),
		Tenant: s.tenant,
		Policy: s.Compiled.Spec.DisplayName(),
		Funnel: telemetry.FunnelTrace{
			Generated:  d.Generated,
			AfterPre:   d.AfterPreFilters,
			AfterStats: d.AfterStatsFilter,
			AfterTrait: d.AfterTraitFilter,
			Ranked:     len(d.Ranked),
			Selected:   len(d.Selected),
		},
		Scan: telemetry.ScanTrace{Mode: "scan", Scanned: s.fleet.TableCount(), Pool: d.Generated},
		Exec: telemetry.ExecTrace{
			Done:           stats.Done,
			Skipped:        stats.Skipped,
			Conflicted:     stats.Conflicted,
			Deferred:       stats.Deferred,
			Failed:         stats.Failed,
			Conflicts:      stats.Conflicts,
			Retries:        stats.Retries,
			Workers:        stats.Workers,
			Shards:         stats.Shards,
			MakespanMS:     stats.Makespan.Milliseconds(),
			UtilizationPct: 100 * stats.Utilization(),
			MaxQueueDepth:  stats.MaxQueueDepth,
		},
		FilesReduced:    rep.FilesReduced,
		MetadataReduced: rep.MetadataReduced,
		BytesRewritten:  rep.BytesRewritten,
		GBHrSpent:       rep.ActualGBHr,
		Fleet:           s.fleet.Summary(),
	}
	if s.Feed != nil {
		scan := s.Feed.LastScan()
		cc := s.Feed.Cache.Counters()
		ev.Scan = telemetry.ScanTrace{
			Mode:        map[bool]string{true: "full", false: "dirty"}[scan.Full],
			Scanned:     scan.Scanned,
			Pool:        scan.Pool,
			CacheHits:   cc.Hits - s.prevCache.Hits,
			CacheMisses: cc.Misses - s.prevCache.Misses,
			DirtyNow:    s.Feed.Tracker.DirtyCount(),
		}
		s.prevCache = cc
	}
	counts := rep.ActionCounts()
	for _, a := range core.ActionTypes() {
		if counts[a] > 0 {
			ev.Outcomes = append(ev.Outcomes, telemetry.OutcomeTrace{Action: a.String(), Done: counts[a]})
		}
	}
	return ev
}

// Tracer returns the tracer this service emits CycleEvents to.
func (s *SpecService) Tracer() *telemetry.Tracer { return s.tracer }
