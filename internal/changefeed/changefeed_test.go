package changefeed_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/lst"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// stubTable is a minimal versioned core.Table for cache and feed tests.
type stubTable struct {
	db, name   string
	version    int64
	smallFiles int
	parts      []string
}

func (t *stubTable) Database() string                       { return t.db }
func (t *stubTable) Name() string                           { return t.name }
func (t *stubTable) FullName() string                       { return t.db + "." + t.name }
func (t *stubTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (t *stubTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (t *stubTable) Prop(string) string                     { return "" }
func (t *stubTable) Created() time.Duration                 { return 0 }
func (t *stubTable) LastWrite() time.Duration               { return 0 }
func (t *stubTable) FileCount() int                         { return t.smallFiles }
func (t *stubTable) TotalBytes() int64                      { return int64(t.smallFiles) * storage.MB }
func (t *stubTable) Partitions() []string                   { return t.parts }
func (t *stubTable) LiveFiles() []lst.DataFile              { return nil }
func (t *stubTable) FilesInPartition(string) []lst.DataFile { return nil }
func (t *stubTable) Version() int64                         { return t.version }

// stubObserver counts expensive observations.
type stubObserver struct{ calls int }

func (o *stubObserver) Observe(c *core.Candidate) (core.Stats, error) {
	o.calls++
	st := c.Table.(*stubTable)
	return core.Stats{SmallFiles: st.smallFiles, FileCount: st.smallFiles}, nil
}

func event(t *stubTable, commits, bytes int64, maint bool) changefeed.Event {
	return changefeed.Event{
		Table: t.FullName(), Ref: t, Version: t.version,
		Commits: commits, Bytes: bytes, Maintenance: maint,
	}
}

func TestIncrementalTrackerTriggers(t *testing.T) {
	tbl := &stubTable{db: "d", name: "a", smallFiles: 5}
	feed := changefeed.NewFeedSharded(changefeed.StaticTriggers(
		changefeed.TriggerPolicy{EveryCommits: 3, BytesWritten: 100}), 0, 1)
	svc, _, err := feedPipeline([]*stubTable{tbl}, feed)
	if err != nil {
		t.Fatal(err)
	}
	dirty := func(want int, after string) {
		t.Helper()
		if got := feed.Tracker.DirtyCount(); got != want {
			t.Fatalf("dirty after %s = %d, want %d", after, got, want)
		}
	}
	// take runs a dirty cycle, which serves exactly the dirty set and
	// consumes it.
	take := func(want int) {
		t.Helper()
		if _, err := svc.Decide(); err != nil {
			t.Fatal(err)
		}
		if scan := feed.LastScan(); scan.Full || scan.Scanned != want {
			t.Fatalf("cycle scan = %+v, want a dirty cycle over %d tables", scan, want)
		}
		dirty(0, "the cycle")
	}
	if _, err := svc.Decide(); err != nil { // cold start
		t.Fatal(err)
	}

	// Commits accumulate until the count trigger fires.
	feed.Publish(event(tbl, 1, 10, false))
	feed.Publish(event(tbl, 1, 10, false))
	dirty(0, "2/3 commits")
	feed.Publish(event(tbl, 1, 10, false))
	dirty(1, "3/3 commits")
	take(1)
	take(0) // the fire reset the accumulation

	// The byte threshold fires ahead of the commit counter.
	feed.Publish(event(tbl, 1, 150, false))
	dirty(1, "byte burst")
	take(1)

	// Maintenance events dirty immediately, bypassing the trigger.
	feed.Publish(event(tbl, 0, 0, true))
	dirty(1, "maintenance event")
	take(1)

	// Redirty marks a known table without any event.
	feed.Tracker.Redirty("d.a")
	dirty(1, "Redirty")
	if feed.Tracker.Events() != 5 || feed.Tracker.Triggered() != 4 {
		t.Fatalf("events=%d triggered=%d, want 5/4", feed.Tracker.Events(), feed.Tracker.Triggered())
	}
}

func TestIncrementalStatsCacheAccounting(t *testing.T) {
	a := &stubTable{db: "d", name: "a", version: 1, smallFiles: 7}
	b := &stubTable{db: "d", name: "b", version: 1, smallFiles: 3}
	feed := changefeed.NewFeedSharded(nil, 0, 1)
	svc, obs, err := feedPipeline([]*stubTable{a, b}, feed)
	if err != nil {
		t.Fatal(err)
	}
	decide := func() {
		t.Helper()
		if _, err := svc.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	counters := func(hits, misses, events int64, entries int) {
		t.Helper()
		want := changefeed.CacheCounters{Hits: hits, Misses: misses, Entries: entries}
		if got := feed.Cache.Counters(); got != want {
			t.Fatalf("counters = %+v, want %+v", got, want)
		}
		if got := feed.Tracker.Events(); got != events {
			t.Fatalf("events = %d, want %d", got, events)
		}
	}

	decide() // cold start observes and caches both tables
	counters(0, 2, 0, 2)
	decide() // a quiet cycle serves both from the cache
	counters(2, 2, 0, 2)

	// A version advance misses even without an invalidation, and the
	// re-observation replaces the table's entry.
	a.version, a.smallFiles = 2, 9
	decide()
	counters(3, 3, 0, 2)

	// A commit event drops exactly its table's entries.
	feed.Publish(event(a, 1, storage.MB, false))
	counters(3, 3, 1, 1)
	decide()
	counters(4, 4, 1, 2)
	if obs.calls != 4 {
		t.Fatalf("observes = %d, want 4 (one per miss)", obs.calls)
	}
	if mv := feed.Cache.MaxVersions(); mv["d.a"] != 2 || mv["d.b"] != 1 {
		t.Fatalf("MaxVersions = %v, want d.a:2 d.b:1", mv)
	}
}

// feedPipeline builds a tiny incremental service over stub tables on
// feed.
func feedPipeline(tables []*stubTable, feed *changefeed.Feed) (*core.Service, *stubObserver, error) {
	list := make([]core.Table, len(tables))
	for i, t := range tables {
		list[i] = t
	}
	obs := &stubObserver{}
	cfg := core.Config{
		Connector: feed.Connector(core.StaticConnector{TableList: list}),
		Generator: feed.Generator(core.TableScopeGenerator{}),
		Observer:  feed.Observer(obs, nil),
		Traits:    []core.Trait{core.FileCountReduction{}},
		Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	}
	svc, err := core.NewService(cfg)
	return svc, obs, err
}

func TestIncrementalCacheInvalidationOnCommit(t *testing.T) {
	tables := []*stubTable{
		{db: "d", name: "a", smallFiles: 10},
		{db: "d", name: "b", smallFiles: 20},
		{db: "d", name: "c", smallFiles: 30},
	}
	feed := changefeed.NewFeedSharded(nil, 0, 1)
	svc, obs, err := feedPipeline(tables, feed)
	if err != nil {
		t.Fatal(err)
	}

	// Cold start observes the whole lake.
	if _, err := svc.Decide(); err != nil {
		t.Fatal(err)
	}
	if obs.calls != 3 {
		t.Fatalf("cold start observes = %d, want 3", obs.calls)
	}

	// A quiet cycle observes nothing: every table answers from cache.
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if obs.calls != 3 {
		t.Fatalf("quiet cycle observes = %d, want 3 (all cached)", obs.calls)
	}
	if d.Generated != 3 {
		t.Fatalf("retained pool = %d, want 3", d.Generated)
	}

	// One commit invalidates exactly that table.
	tables[1].version++
	tables[1].smallFiles = 25
	feed.Publish(event(tables[1], 1, storage.MB, false))
	d, err = svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if obs.calls != 4 {
		t.Fatalf("post-commit observes = %d, want 4 (one re-observation)", obs.calls)
	}
	for _, c := range d.Ranked {
		if c.Table.FullName() == "d.b" && c.Stats.SmallFiles != 25 {
			t.Fatalf("d.b stats stale: %d small files, want 25", c.Stats.SmallFiles)
		}
	}

	cc := feed.Cache.Counters()
	if cc.Hits != 5 { // 3 quiet + 2 clean tables on the commit cycle
		t.Fatalf("cache hits = %d, want 5", cc.Hits)
	}
}

// twoActionGenerator proposes snapshot expiry and a metadata checkpoint
// for every table: two table-scope work units that differ only in
// action.
type twoActionGenerator struct{}

func (twoActionGenerator) Name() string { return "two-action" }

func (twoActionGenerator) Candidates(tables []core.Table) []*core.Candidate {
	var out []*core.Candidate
	for _, t := range tables {
		out = append(out,
			&core.Candidate{Table: t, Action: core.ActionSnapshotExpiry},
			&core.Candidate{Table: t, Action: core.ActionMetadataCheckpoint})
	}
	return out
}

// unitObserver returns statistics unique to each work unit (a hash of
// the candidate ID in DeltaFiles), so a cache serving one unit another
// unit's observation shows in the stats.
type unitObserver struct{ calls int }

func unitMark(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32())
}

func (o *unitObserver) Observe(c *core.Candidate) (core.Stats, error) {
	o.calls++
	return core.Stats{SmallFiles: c.Table.(*stubTable).smallFiles, DeltaFiles: unitMark(c.ID())}, nil
}

func TestIncrementalCacheKeysWorkUnits(t *testing.T) {
	// Table a has three partitions, so it yields one table-scope and
	// three partition-scope data units plus two maintenance units; b is
	// unpartitioned and yields three units.
	a := &stubTable{db: "d", name: "a", version: 1, smallFiles: 7, parts: []string{"p0", "p1", "p2"}}
	b := &stubTable{db: "d", name: "b", version: 1, smallFiles: 3}
	const units = 9
	feed := changefeed.NewFeedSharded(nil, 2, 1) // cycle 2 reconciles
	obs := &unitObserver{}
	svc, err := core.NewService(core.Config{
		Connector: feed.Connector(core.StaticConnector{TableList: []core.Table{a, b}}),
		Generator: feed.Generator(core.MultiGenerator{
			core.TableScopeGenerator{}, core.PartitionScopeGenerator{}, twoActionGenerator{},
		}),
		Observer: feed.Observer(obs, nil),
		Traits:   []core.Trait{core.FileCountReduction{}},
		Ranker:   core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// decide runs a cycle and checks that every unit was served its own
	// observation.
	decide := func() {
		t.Helper()
		d, err := svc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Ranked) != units {
			t.Fatalf("ranked %d candidates, want %d", len(d.Ranked), units)
		}
		for _, c := range d.Ranked {
			if c.Stats.DeltaFiles != unitMark(c.ID()) {
				t.Fatalf("%s was served another unit's observation", c.ID())
			}
		}
	}
	counters := func(hits, misses, events int64, entries int) {
		t.Helper()
		want := changefeed.CacheCounters{Hits: hits, Misses: misses, Entries: entries}
		if got := feed.Cache.Counters(); got != want {
			t.Fatalf("counters = %+v, want %+v", got, want)
		}
		if got := feed.Tracker.Events(); got != events {
			t.Fatalf("events = %d, want %d", got, events)
		}
	}
	decide() // cold start: every unit misses and gets its own entry
	counters(0, units, 0, units)
	if obs.calls != units {
		t.Fatalf("cold start observes = %d, want %d", obs.calls, units)
	}

	// The reconciling full scan regenerates every unit as a fresh
	// candidate; each is served from the cache.
	decide()
	if !feed.LastScan().Full {
		t.Fatal("cycle 2 did not reconcile")
	}
	counters(units, units, 0, units)
	if obs.calls != units {
		t.Fatalf("reconcile observes = %d, want %d (all cached)", obs.calls, units)
	}

	// One event on a invalidates all six of its units and none of b's.
	feed.Publish(event(a, 1, storage.MB, false))
	counters(units, units, 1, 3)
	decide()
	counters(units+3, units+6, 1, units)
	if obs.calls != units+6 {
		t.Fatalf("post-event observes = %d, want %d", obs.calls, units+6)
	}
}

// mutableConnector serves a table list the test can grow mid-run.
type mutableConnector struct{ tables *[]core.Table }

func (c mutableConnector) Tables() []core.Table            { return *c.tables }
func (c mutableConnector) QuotaUtilization(string) float64 { return 0 }
func (c mutableConnector) Now() time.Duration              { return 0 }

func TestIncrementalReconcilerCatchesDroppedEvent(t *testing.T) {
	a := &stubTable{db: "d", name: "a", smallFiles: 10}
	b := &stubTable{db: "d", name: "b", smallFiles: 20}
	list := []core.Table{a, b}
	obs := &stubObserver{}
	feed := changefeed.NewFeedSharded(nil, 3, 1) // cycles 3, 6, ... reconcile
	svc, err := core.NewService(core.Config{
		Connector: feed.Connector(mutableConnector{tables: &list}),
		Generator: feed.Generator(core.TableScopeGenerator{}),
		Observer:  feed.Observer(obs, nil),
		Traits:    []core.Trait{core.FileCountReduction{}},
		Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Decide(); err != nil { // cycle 1: cold start
		t.Fatal(err)
	}
	if obs.calls != 2 {
		t.Fatalf("cold start observes = %d, want 2", obs.calls)
	}

	// A silent version-advancing change (dropped commit event) is
	// self-healed by the version-keyed cache: the retained candidate's
	// lookup misses at the new version and re-observes immediately.
	a.version++
	a.smallFiles = 99
	d, err := svc.Decide() // cycle 2: dirty-only
	if err != nil {
		t.Fatal(err)
	}
	if obs.calls != 3 {
		t.Fatalf("cycle-2 observes = %d, want 3 (version-keyed self-heal)", obs.calls)
	}
	for _, c := range d.Ranked {
		if c.Table.FullName() == "d.a" && c.Stats.SmallFiles != 99 {
			t.Fatalf("version-keyed cache served stale stats: %d", c.Stats.SmallFiles)
		}
	}

	// An enumeration-level drop — a new table whose onboarding event was
	// lost — is invisible to the dirty set and the cache: only the
	// reconciling full scan can discover it.
	c := &stubTable{db: "d", name: "c", smallFiles: 30}
	list = append(list, c)
	if d.Generated != 2 {
		t.Fatalf("pool before discovery = %d, want 2", d.Generated)
	}

	d, err = svc.Decide() // cycle 3: reconcile
	if err != nil {
		t.Fatal(err)
	}
	scan := feed.LastScan()
	if !scan.Full {
		t.Fatalf("cycle 3 not a full scan: %+v", scan)
	}
	if d.Generated != 3 {
		t.Fatalf("reconciled pool = %d, want 3 (dropped table discovered)", d.Generated)
	}
	if obs.calls != 4 {
		t.Fatalf("reconcile observes = %d, want 4 (only the new table misses)", obs.calls)
	}
	found := false
	for _, cand := range d.Ranked {
		if cand.Table.FullName() == "d.c" {
			found = true
			if cand.Stats.SmallFiles != 30 {
				t.Fatalf("discovered table stats = %d, want 30", cand.Stats.SmallFiles)
			}
		}
	}
	if !found {
		t.Fatal("d.c missing from reconciled pool")
	}
}

func TestIncrementalLSTAndCatalogPublish(t *testing.T) {
	clock := sim.NewClock()
	rng := sim.NewRNG(7)
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng)
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("d", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable("d", lst.TableConfig{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}

	var got []changefeed.Event
	changefeed.AttachCatalog(func(e changefeed.Event) { got = append(got, e) }, cp)

	// A commit publishes a writer event with the snapshot's bytes.
	if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: 4 * storage.MB}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Maintenance || got[0].Table != "d.a" || got[0].Bytes != 4*storage.MB {
		t.Fatalf("commit event = %+v", got)
	}
	if got[0].Version != tbl.Version() {
		t.Fatalf("event version %d != table version %d", got[0].Version, tbl.Version())
	}

	// Tables created after attachment publish too.
	tbl2, err := cp.CreateTable("d", lst.TableConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl2.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Table != "d.b" {
		t.Fatalf("post-attach table did not publish: %+v", got)
	}

	// Maintenance operations publish maintenance events.
	for i := 0; i < 5; i++ {
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB}}); err != nil {
			t.Fatal(err)
		}
	}
	n := len(got)
	if _, err := tbl.ExpireSnapshots(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != n+1 || !got[n].Maintenance {
		t.Fatalf("expiry event missing: %+v", got[len(got)-1])
	}
}

func TestIncrementalFleetParity(t *testing.T) {
	// Two identically seeded fleets run the same spec, one as written
	// (full scan) and one with a trigger section added (incremental).
	// They must select byte-identical plans every cycle and therefore
	// evolve in lockstep — the experiment's parity property at unit-test
	// scale.
	cfg := fleet.DefaultConfig()
	cfg.InitialTables = 120
	cfg.DailyWriteProb = 0.1
	model := fleet.DefaultModel(512 * storage.MB)
	spec := func(trigger *policy.TriggerSpec) *policy.Spec {
		s := policy.DefaultSpec()
		s.Execution = nil
		s.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(15)}}
		s.Trigger = trigger
		return s
	}

	fFull := fleet.New(cfg, sim.NewClock())
	fIncr := fleet.New(cfg, sim.NewClock())
	fullSS, err := fFull.ServiceFromSpec(spec(nil), model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	incrSS, err := fIncr.ServiceFromSpec(spec(&policy.TriggerSpec{EveryCommits: 1}), model, fleet.SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, incr, feed := fullSS.Svc, incrSS.Svc, incrSS.Feed

	plan := func(d *core.Decision) string {
		out := ""
		for _, c := range d.Selected {
			out += c.ID() + ","
		}
		return out
	}
	for cycle := 1; cycle <= 5; cycle++ {
		fFull.AdvanceDay()
		fIncr.AdvanceDay()
		dFull, err := full.Decide()
		if err != nil {
			t.Fatal(err)
		}
		dIncr, err := incr.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if pf, pi := plan(dFull), plan(dIncr); pf != pi {
			t.Fatalf("cycle %d plans diverged:\nfull: %s\nincr: %s", cycle, pf, pi)
		}
		if dFull.Generated != dIncr.Generated {
			t.Fatalf("cycle %d pool sizes diverged: %d vs %d", cycle, dFull.Generated, dIncr.Generated)
		}
		if _, err := full.Act(dFull); err != nil {
			t.Fatal(err)
		}
		if _, err := incr.Act(dIncr); err != nil {
			t.Fatal(err)
		}
		if cycle > 1 {
			scan := feed.LastScan()
			if scan.Full {
				t.Fatalf("cycle %d unexpectedly full-scanned", cycle)
			}
			if scan.Scanned >= fIncr.TableCount() {
				t.Fatalf("cycle %d scanned the whole fleet (%d tables)", cycle, scan.Scanned)
			}
		}
	}
	if fFull.TotalFiles() != fIncr.TotalFiles() {
		t.Fatalf("fleets diverged: %d vs %d files", fFull.TotalFiles(), fIncr.TotalFiles())
	}
}

// catalogPipeline builds a catalog lake holding the named tables of
// database d, each with two small files, and a single-stripe
// incremental service over it with the feed attached to the catalog.
func catalogPipeline(t *testing.T, names ...string) (*catalog.ControlPlane, *changefeed.Feed, *core.Service) {
	t.Helper()
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(11))
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("d", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		tbl, err := cp.CreateTable("d", lst.TableConfig{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB}, {SizeBytes: storage.MB}}); err != nil {
			t.Fatal(err)
		}
	}
	feed := changefeed.NewFeedSharded(nil, 0, 1)
	changefeed.AttachCatalog(feed.Publish, cp)
	svc, err := core.NewService(core.Config{
		Connector: feed.Connector(core.CatalogConnector{CP: cp}),
		Generator: feed.Generator(core.TableScopeGenerator{}),
		Observer:  feed.Observer(core.StatsObserver{TargetFileSize: 64 * storage.MB}, nil),
		Traits:    []core.Trait{core.FileCountReduction{}},
		Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp, feed, svc
}

// rankedTables runs one decide cycle and returns its ranked tables.
func rankedTables(t *testing.T, svc *core.Service) ([]string, *core.Decision) {
	t.Helper()
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, c := range d.Ranked {
		out = append(out, c.Table.FullName())
	}
	return out, d
}

func TestIncrementalDroppedTableForgotten(t *testing.T) {
	cp, feed, svc := catalogPipeline(t, "a", "b")
	rankedTables(t, svc) // cold start retains both
	if feed.RetainedCount() != 2 || feed.Tracker.KnownCount() != 2 {
		t.Fatalf("retained=%d known=%d, want 2/2", feed.RetainedCount(), feed.Tracker.KnownCount())
	}

	// Dropping the table must purge it from the whole incremental
	// plane: retained pool, tracker, and cache.
	if err := cp.DropTable("d", "a"); err != nil {
		t.Fatal(err)
	}
	if feed.Tracker.KnownCount() != 1 || feed.RetainedCount() != 1 || feed.Cache.Counters().Entries != 1 {
		t.Fatalf("dropped table not forgotten: known=%d retained=%d entries=%d",
			feed.Tracker.KnownCount(), feed.RetainedCount(), feed.Cache.Counters().Entries)
	}
	ranked, d := rankedTables(t, svc)
	if d.Generated != 1 || fmt.Sprint(ranked) != "[d.b]" {
		t.Fatalf("pool after drop = %d ranked %v, want 1 [d.b]", d.Generated, ranked)
	}

	// A commit event that raced the drop (publisher read the hook
	// before detachment) must not resurrect the dropped table.
	feed.Publish(changefeed.Event{Table: "d.a", Version: 3, Commits: 1})
	if feed.Tracker.KnownCount() != 1 || feed.Tracker.DirtyCount() != 0 {
		t.Fatalf("racing commit resurrected dropped table: known=%d dirty=%d",
			feed.Tracker.KnownCount(), feed.Tracker.DirtyCount())
	}
}

// TestIncrementalRecreatedTableRegisters pins the drop tombstone to the
// dropped table object: a table created under a dropped table's name is
// a new table, and its commits must reach the dirty set even when no
// reconciling full scan ever runs.
func TestIncrementalRecreatedTableRegisters(t *testing.T) {
	cp, feed, svc := catalogPipeline(t, "t", "u")
	if ranked, _ := rankedTables(t, svc); fmt.Sprint(ranked) != "[d.t d.u]" {
		t.Fatalf("cold start ranked %v, want [d.t d.u]", ranked)
	}
	if err := cp.DropTable("d", "t"); err != nil {
		t.Fatal(err)
	}
	recreated, err := cp.CreateTable("d", lst.TableConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := recreated.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB}}); err != nil {
			t.Fatal(err)
		}
	}
	if feed.Tracker.KnownCount() != 2 || feed.Tracker.DirtyCount() != 1 {
		t.Fatalf("recreated table not tracked: known=%d dirty=%d, want 2/1",
			feed.Tracker.KnownCount(), feed.Tracker.DirtyCount())
	}
	ranked, d := rankedTables(t, svc)
	if fmt.Sprint(ranked) != "[d.t d.u]" {
		t.Fatalf("after recreate ranked %v, want [d.t d.u]", ranked)
	}
	if d.Ranked[0].Table != core.Table(recreated) {
		t.Fatal("ranked d.t is not the recreated table")
	}
}
