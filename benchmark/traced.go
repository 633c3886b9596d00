package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"autocomp/internal/changefeed"
	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/decideshard"
	"autocomp/internal/fleet"
	"autocomp/internal/lstlog"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

// seam aggregates a per-call boundary (Tables, Observe, Run) into
// per-cycle totals: calls, items returned, and busy time summed over
// calls. Decide shards call observers concurrently, hence the atomics.
type seam struct {
	calls, items, busy atomic.Int64
}

func (s *seam) done(start time.Time, items int) {
	s.calls.Add(1)
	s.items.Add(int64(items))
	s.busy.Add(int64(time.Since(start)))
}

type seamTotals struct {
	calls, items int64
	busy         time.Duration
}

// take returns the totals since the last take and resets them.
func (s *seam) take() seamTotals {
	return seamTotals{s.calls.Swap(0), s.items.Swap(0), time.Duration(s.busy.Swap(0))}
}

type timedConnector struct {
	core.Connector
	s *seam
}

func (c timedConnector) Tables() []core.Table {
	t := time.Now()
	ts := c.Connector.Tables()
	c.s.done(t, len(ts))
	return ts
}

type timedObserver struct {
	inner core.Observer
	s     *seam
}

func (o timedObserver) Observe(c *core.Candidate) (core.Stats, error) {
	t := time.Now()
	st, err := o.inner.Observe(c)
	o.s.done(t, 1)
	return st, err
}

type timedRunner struct {
	inner core.Runner
	s     *seam
}

func (r timedRunner) Run(c *core.Candidate) compaction.Result {
	t := time.Now()
	res := r.inner.Run(c)
	r.s.done(t, 1)
	return res
}

// diskState mirrors the tenant's persisted file, tenants/<name>/fleet.json.
type diskState struct {
	Name  string       `json:"name"`
	Day   int          `json:"day"`
	Fleet *fleet.State `json:"fleet"`
}

// layerSamples collects one value per timed cycle (or per restore) for
// every per-layer metric the traced run reports.
type layerSamples struct {
	advanceMS, advanceAllocMB                                []float64
	decideMS, decideAllocMB, decideSelfMS, observeMS         []float64
	observeCalls, generated, ranked, selected                []float64
	connectorMS, cacheObserveMS, scanned, dirty, reconcileMS []float64
	cacheHits, cacheLookups                                  int64
	shardPipeMS, shardRankMS, mergeMS, criticalMS, imbalance []float64
	actMS, actAllocMB, jobs, skipped, conflicts, retries     []float64
	deferred, maxQueue, runnerMS, poolUSPerJob, makespanH    []float64
	snapshotMS, encodeMS, writeMS, snapshotMB                []float64
	readMS, decodeMS, restoreMS, compileMS                   []float64
	renderMS, renderKB                                       []float64
	layersMS                                                 []float64 // advance + decide + act + persist
}

// tracedLake rebuilds the tenant's pipeline the way
// fleet.ServiceFromSpec does, from public calls only, with every layer
// boundary timed from outside: substrate connector and observer wrapped
// before compiling; the outer connector, observer, runner and decider
// wrapped after the incremental feed is attached; a sharded decide
// engine built with no clock so its stats report host time.
type tracedLake struct {
	w     *Workload
	cfg   tenant.Config
	spec  *policy.Spec
	model fleet.CompactionModel
	tr    *tracer
	s     *layerSamples

	f     *fleet.Fleet
	sched *fleet.ScheduledService
	feed  *changefeed.Feed
	eng   *decideshard.Engine
	store *lstlog.Store
	day   int

	fleetTables, coreTables, fleetObserve, coreObserve, runner seam
	// decide is the last decide call's interval and allocation.
	decide struct {
		start, end time.Time
		alloc      uint64
	}
	prevCache changefeed.CacheCounters
}

func newTracedLake(w *Workload, tr *tracer, s *layerSamples) *tracedLake {
	return &tracedLake{
		w:     w,
		cfg:   w.tenantConfig(),
		model: fleet.DefaultModel(512 * storage.MB),
		tr:    tr,
		s:     s,
	}
}

// fleetConfig maps the tenant topology onto the substrate's config the
// way tenant.New does; a mismatch would surface as a digest mismatch
// against the tenant path.
func fleetConfig(c tenant.Config) fleet.Config {
	fc := fleet.DefaultConfig()
	fc.Seed = c.Seed
	if c.InitialTables > 0 {
		fc.InitialTables = c.InitialTables
	}
	if c.Databases > 0 {
		fc.Databases = c.Databases
	}
	if c.QuotaObjectsPerDB != 0 {
		fc.QuotaObjectsPerDB = c.QuotaObjectsPerDB
	}
	if c.TablesPerMonth != 0 {
		fc.TablesPerMonth = c.TablesPerMonth
	}
	fc.DailyWriteProb = c.DailyWriteProb
	if c.DailyDriftProb > 0 {
		fc.DailyDriftProb = c.DailyDriftProb
	}
	return fc
}

func (l *tracedLake) setUp(root string) error {
	l.spec = l.w.specAt(root)
	l.f = fleet.New(fleetConfig(l.cfg), sim.NewClock())
	if l.spec.Storage.Durable() {
		st, err := lstlog.Open(lstlog.Config{Root: l.spec.Storage.Root, Fsync: l.spec.Storage.Fsync})
		if err != nil {
			return err
		}
		l.store = st
	}
	return l.build()
}

func (l *tracedLake) build() error {
	f := l.f
	b := f.PolicyBindings(l.model)
	b.Connector = timedConnector{b.Connector, &l.fleetTables}
	b.Observer = timedObserver{b.Observer, &l.fleetObserve}
	comp, err := policy.Compile(l.spec, f.PolicyEnv(l.model), b)
	if err != nil {
		return err
	}
	if !comp.HasExecution {
		return errors.New("the traced pipeline needs a policy with an execution section")
	}
	cfg := comp.Core
	decide := core.Decider((*core.Config).DecideSerial)
	if comp.DecideShards > 1 {
		l.eng = decideshard.New(decideshard.Options{Shards: comp.DecideShards, Workers: l.spec.Execution.DecideWorkers})
		decide = l.eng.Decide
	}
	if comp.Incremental {
		cfg, l.feed = f.IncrementalConfig(cfg, fleet.IncrOptions{
			Trigger:        comp.Trigger,
			Triggers:       comp.Triggers,
			ReconcileEvery: comp.ReconcileEvery,
			DecideShards:   comp.DecideShards,
		})
	} else {
		f.AttachChangefeed(nil)
	}
	cfg.Connector = timedConnector{cfg.Connector, &l.coreTables}
	cfg.Observer = timedObserver{cfg.Observer, &l.coreObserve}
	cfg.Runner = timedRunner{cfg.Runner, &l.runner}
	cfg.Decider = func(c *core.Config) (*core.Decision, error) {
		a := allocated()
		l.decide.start = time.Now()
		d, err := decide(c)
		l.decide.end = time.Now()
		l.decide.alloc = allocated() - a
		return d, err
	}
	svc, err := core.NewService(cfg)
	if err != nil {
		return err
	}
	sc := comp.Sched
	l.sched = f.ScheduleService(svc, l.model, fleet.SchedOptions{
		Workers:              sc.Workers,
		Shards:               sc.Shards,
		ShardBudgetGBHr:      sc.ShardBudgetGBHr,
		StalenessBound:       sc.StalenessBound,
		MaxAttempts:          sc.MaxAttempts,
		RetryBase:            sc.RetryBase,
		RetryMax:             sc.RetryMax,
		AgingRatePerHour:     sc.AgingRatePerHour,
		WriterCommitsPerHour: l.cfg.WriterCommitsPerHour,
	})
	return nil
}

func (l *tracedLake) persistRel() string { return "tenants/" + l.cfg.Name + "/fleet.json" }

func (l *tracedLake) cycle(timed bool) (cycleOut, error) {
	for _, s := range []*seam{&l.fleetTables, &l.coreTables, &l.fleetObserve, &l.coreObserve, &l.runner} {
		s.take()
	}
	c0, a0 := time.Now(), allocated()
	l.f.AdvanceDay()
	c1, a1 := time.Now(), allocated()
	rep, stats, err := l.sched.RunCycle()
	if err != nil {
		return cycleOut{}, err
	}
	c2, a2 := time.Now(), allocated()
	l.day++
	var p0, p1, p2, p3 time.Time
	var snapBytes int
	if l.store != nil {
		p0 = time.Now()
		snap := l.f.Snapshot()
		p1 = time.Now()
		b, err := json.Marshal(&diskState{Name: l.cfg.Name, Day: l.day, Fleet: snap})
		if err != nil {
			return cycleOut{}, err
		}
		p2 = time.Now()
		if err := l.store.WriteSubFile(l.persistRel(), b); err != nil {
			return cycleOut{}, err
		}
		p3 = time.Now()
		snapBytes = len(b)
	}
	end := time.Now()
	out := cycleOut{rep: rep, submitted: len(rep.Decision.Selected), failed: stats.Failed + stats.Conflicted, tables: l.f.TableCount()}
	if !timed {
		if l.feed != nil {
			l.prevCache = l.feed.Cache.Counters()
		}
		return out, nil
	}

	s, tr := l.s, l.tr
	tr.cycle++
	root := tr.add(0, "tenant.cycle", c0, end, 0)
	tr.add(root, "fleet.advance", c0, c1, a1-a0)
	dec := tr.add(root, "core.decide", l.decide.start, l.decide.end, l.decide.alloc)
	ct, ft := l.coreTables.take(), l.fleetTables.take()
	co, fo := l.coreObserve.take(), l.fleetObserve.take()
	rn := l.runner.take()
	conn := tr.addSeam(dec, "core.connector", l.decide.start, l.decide.end, ct)
	tr.addSeam(conn, "fleet.connector", l.decide.start, l.decide.end, ft)
	obs := tr.addSeam(dec, "core.observe", l.decide.start, l.decide.end, co)
	tr.addSeam(obs, "fleet.observe", l.decide.start, l.decide.end, fo)
	act := tr.add(root, "scheduler.act", l.decide.end, c2, (a2-a1)-l.decide.alloc)
	tr.addSeam(act, "scheduler.runner", l.decide.end, c2, rn)

	decideD := l.decide.end.Sub(l.decide.start)
	actD := c2.Sub(l.decide.end)
	d := rep.Decision
	s.advanceMS = append(s.advanceMS, ms(c1.Sub(c0)))
	s.advanceAllocMB = append(s.advanceAllocMB, float64(a1-a0)/mb)
	s.decideMS = append(s.decideMS, ms(decideD))
	s.decideAllocMB = append(s.decideAllocMB, float64(l.decide.alloc)/mb)
	// Observe busy time is summed over decide workers, so on a sharded
	// decide the self time is a lower bound.
	s.decideSelfMS = append(s.decideSelfMS, max(0, ms(decideD-ct.busy-co.busy)))
	s.observeCalls = append(s.observeCalls, float64(co.calls))
	s.observeMS = append(s.observeMS, ms(co.busy))
	s.generated = append(s.generated, float64(d.Generated))
	s.ranked = append(s.ranked, float64(len(d.Ranked)))
	s.selected = append(s.selected, float64(len(d.Selected)))
	s.scanned = append(s.scanned, float64(ct.items))
	if l.feed != nil {
		s.connectorMS = append(s.connectorMS, ms(ct.busy-ft.busy))
		s.cacheObserveMS = append(s.cacheObserveMS, ms(co.busy-fo.busy))
		s.dirty = append(s.dirty, float64(l.feed.Tracker.DirtyCount()))
		cc := l.feed.Cache.Counters()
		s.cacheHits += cc.Hits - l.prevCache.Hits
		s.cacheLookups += cc.Hits - l.prevCache.Hits + cc.Misses - l.prevCache.Misses
		l.prevCache = cc
		if l.feed.LastScan().Full {
			s.reconcileMS = append(s.reconcileMS, ms(decideD))
		}
	}
	if l.eng != nil {
		cs := l.eng.LastCycle()
		var pipe, rank time.Duration
		var maxCands, sumCands int
		for i := range cs.ShardPipeline {
			pipe = max(pipe, cs.ShardPipeline[i])
			rank = max(rank, cs.ShardRank[i])
			maxCands = max(maxCands, cs.ShardCandidates[i])
			sumCands += cs.ShardCandidates[i]
		}
		s.shardPipeMS = append(s.shardPipeMS, ms(pipe))
		s.shardRankMS = append(s.shardRankMS, ms(rank))
		s.mergeMS = append(s.mergeMS, ms(cs.Merge))
		s.criticalMS = append(s.criticalMS, ms(cs.CriticalPath()))
		if sumCands > 0 {
			s.imbalance = append(s.imbalance, float64(maxCands*cs.Shards)/float64(sumCands))
		}
	}
	s.actMS = append(s.actMS, ms(actD))
	s.actAllocMB = append(s.actAllocMB, float64((a2-a1)-l.decide.alloc)/mb)
	s.jobs = append(s.jobs, float64(stats.Submitted))
	s.skipped = append(s.skipped, float64(stats.Skipped))
	s.conflicts = append(s.conflicts, float64(stats.Conflicts))
	s.retries = append(s.retries, float64(stats.Retries))
	s.deferred = append(s.deferred, float64(stats.Deferred))
	s.maxQueue = append(s.maxQueue, float64(stats.MaxQueueDepth))
	s.runnerMS = append(s.runnerMS, ms(rn.busy))
	if stats.Submitted > 0 {
		s.poolUSPerJob = append(s.poolUSPerJob, us(actD-rn.busy)/float64(stats.Submitted))
	}
	s.makespanH = append(s.makespanH, stats.Makespan.Hours())
	layers := c2.Sub(c0)
	if l.store != nil {
		per := tr.add(root, "tenant.persist", p0, p3, 0)
		tr.add(per, "tenant.snapshot", p0, p1, 0)
		tr.add(per, "tenant.encode", p1, p2, 0)
		tr.add(per, "lstlog.write", p2, p3, 0)
		s.snapshotMS = append(s.snapshotMS, ms(p1.Sub(p0)))
		s.encodeMS = append(s.encodeMS, ms(p2.Sub(p1)))
		s.writeMS = append(s.writeMS, ms(p3.Sub(p2)))
		s.snapshotMB = append(s.snapshotMB, float64(snapBytes)/mb)
		layers += p3.Sub(p0)
	}
	s.layersMS = append(s.layersMS, ms(layers))
	return out, nil
}

// restart times what a tenant restart does — read the persisted file,
// decode it, restore the fleet, compile the pipeline against it — on the
// side, without swapping the running lake: the traced run is the
// no-restart reference the tenant path's restarts must match.
func (l *tracedLake) restart() error {
	t0 := time.Now()
	b, err := l.store.ReadSubFile(l.persistRel())
	if err != nil {
		return err
	}
	t1 := time.Now()
	var st diskState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	t2 := time.Now()
	f, err := fleet.Restore(st.Fleet, sim.NewClock())
	if err != nil {
		return err
	}
	t3 := time.Now()
	if _, err := policy.Compile(l.spec, f.PolicyEnv(l.model), f.PolicyBindings(l.model)); err != nil {
		return err
	}
	t4 := time.Now()
	if st.Day != l.day || f.TableCount() != l.f.TableCount() || f.TotalFiles() != l.f.TotalFiles() {
		return fmt.Errorf("restored day %d with %d tables and %d files, want day %d with %d and %d",
			st.Day, f.TableCount(), f.TotalFiles(), l.day, l.f.TableCount(), l.f.TotalFiles())
	}
	tr := l.tr
	root := tr.add(0, "tenant.restore", t0, t4, 0)
	tr.add(root, "lstlog.read", t0, t1, 0)
	tr.add(root, "tenant.decode", t1, t2, 0)
	tr.add(root, "fleet.restore", t2, t3, 0)
	tr.add(root, "policy.compile", t3, t4, 0)
	l.s.readMS = append(l.s.readMS, ms(t1.Sub(t0)))
	l.s.decodeMS = append(l.s.decodeMS, ms(t2.Sub(t1)))
	l.s.restoreMS = append(l.s.restoreMS, ms(t3.Sub(t2)))
	l.s.compileMS = append(l.s.compileMS, ms(t4.Sub(t3)))
	return nil
}

// between renders the process's metrics once per cycle, as a scrape of
// /metrics would.
func (l *tracedLake) between() {
	t := time.Now()
	out := telemetry.Default().Render()
	end := time.Now()
	l.tr.add(0, "telemetry.render", t, end, 0)
	l.s.renderMS = append(l.s.renderMS, ms(end.Sub(t)))
	l.s.renderKB = append(l.s.renderKB, float64(len(out))/1024)
}
