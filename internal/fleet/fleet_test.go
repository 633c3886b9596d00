package fleet

import (
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func smallFleet(seed int64) (*Fleet, *sim.Clock) {
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.InitialTables = 300
	cfg.TablesPerMonth = 30
	return New(cfg, clock), clock
}

func TestFleetInitialShape(t *testing.T) {
	f, _ := smallFleet(1)
	if f.TableCount() != 300 {
		t.Fatalf("tables = %d", f.TableCount())
	}
	frac := f.TinyFileFraction()
	if frac < 0.75 || frac > 0.92 {
		t.Fatalf("tiny fraction = %v, want ~0.83", frac)
	}
	if f.TotalFiles() == 0 {
		t.Fatal("no files")
	}
	h := f.Histogram()
	if h[0]+h[1]+h[2] != f.TotalFiles() {
		t.Fatal("histogram does not sum to total")
	}
}

func TestFleetDeterministic(t *testing.T) {
	a, _ := smallFleet(5)
	b, _ := smallFleet(5)
	if a.TotalFiles() != b.TotalFiles() || a.TinyFileFraction() != b.TinyFileFraction() {
		t.Fatal("fleet generation not deterministic")
	}
}

func TestAdvanceDayGrowsFilesAndOnboards(t *testing.T) {
	f, clock := smallFleet(1)
	files0 := f.TotalFiles()
	tables0 := f.TableCount()
	for i := 0; i < 30; i++ {
		f.AdvanceDay()
	}
	if f.TotalFiles() <= files0 {
		t.Fatal("no organic growth")
	}
	if f.TableCount() <= tables0 {
		t.Fatal("no onboarding")
	}
	if got := f.TableCount() - tables0; got < 25 || got > 35 {
		t.Fatalf("onboarded %d in a month, want ~30", got)
	}
	if f.Day() != 30 {
		t.Fatalf("day = %d", f.Day())
	}
	if clock.Now() != 30*24*3_600_000_000_000 {
		t.Fatalf("clock = %v", clock.Now())
	}
}

func TestCompactTableReducesSmallFiles(t *testing.T) {
	f, _ := smallFleet(1)
	r := Runner{Fleet: f, Model: DefaultModel(512 * storage.MB)}
	tbl := f.MostFragmented(1)[0]
	small0 := tbl.SmallFiles()
	files0 := tbl.FileCount()
	bytes0 := tbl.TotalBytes()
	res := r.CompactTable(tbl)
	if !res.Succeeded() {
		t.Fatalf("result = %+v", res)
	}
	if tbl.SmallFiles() >= small0 {
		t.Fatal("small files did not drop")
	}
	if tbl.FileCount() >= files0 {
		t.Fatal("file count did not drop")
	}
	// Bytes conserved within rounding.
	if tbl.TotalBytes() < bytes0*99/100 || tbl.TotalBytes() > bytes0*101/100 {
		t.Fatalf("bytes %d -> %d", bytes0, tbl.TotalBytes())
	}
	if res.GBHr <= 0 || res.Duration <= 0 {
		t.Fatalf("cost missing: %+v", res)
	}
}

func TestCompactionActualBelowEstimate(t *testing.T) {
	f, _ := smallFleet(2)
	r := Runner{Fleet: f, Model: DefaultModel(512 * storage.MB)}
	over, n := 0, 0
	for _, tbl := range f.MostFragmented(20) {
		est := float64(tbl.SmallFiles()) // the §4.2 ΔF estimate
		res := r.CompactTable(tbl)
		if !res.Succeeded() {
			continue
		}
		n++
		if est > float64(res.Reduction()) {
			over++
		}
	}
	if n == 0 {
		t.Fatal("nothing compacted")
	}
	// Table-level estimates overestimate essentially always (§7).
	if over < n*9/10 {
		t.Fatalf("overestimation in only %d/%d cases", over, n)
	}
}

func TestMostFragmentedOrdering(t *testing.T) {
	f, _ := smallFleet(3)
	top := f.MostFragmented(10)
	if len(top) != 10 {
		t.Fatalf("top = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].SmallFiles() < top[i].SmallFiles() {
			t.Fatal("not ordered by small files")
		}
	}
}

// dataService builds the §7 production pipeline over f — the
// quota-adaptive data-compaction spec — under the given selector.
func dataService(t *testing.T, f *Fleet, selector policy.Component) *core.Service {
	t.Helper()
	spec := policy.DefaultDataSpec(true)
	spec.Selector = &selector
	ss, err := f.ServiceFromSpec(spec, DefaultModel(512*storage.MB), SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss.Svc
}

func TestFleetServiceRunOnce(t *testing.T) {
	f, _ := smallFleet(4)
	svc := dataService(t, f, policy.Component{Name: "top-k", Params: map[string]any{"k": float64(10)}})
	before := f.TotalFiles()
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decision.Selected) != 10 {
		t.Fatalf("selected = %d", len(rep.Decision.Selected))
	}
	if rep.FilesReduced <= 0 {
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	if f.TotalFiles() >= before {
		t.Fatal("fleet file count did not drop")
	}
}

func TestFleetServiceBudgetDynamicK(t *testing.T) {
	f, _ := smallFleet(6)
	svc := dataService(t, f, policy.Component{Name: "budget", Params: map[string]any{"budget_gbhr": float64(226 * 1024)}})
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	// A large budget admits many more than the fixed top-10 (§7's
	// dynamic k ≈ 2500 under 226 TBHr).
	if len(rep.Decision.Selected) <= 10 {
		t.Fatalf("dynamic k = %d", len(rep.Decision.Selected))
	}
}

func TestQuotaUtilizationBounded(t *testing.T) {
	f, _ := smallFleet(7)
	for _, db := range []string{"db000", "db001", "db999"} {
		u := f.QuotaUtilization(db)
		if u < 0 || u > 1 {
			t.Fatalf("quota %s = %v", db, u)
		}
	}
}

// TestQuotaUtilizationMatchesRecount recounts every database's files
// from its tables after each kind of file-count change and requires
// QuotaUtilization, and the Observer on each table, to read the
// recount.
func TestQuotaUtilizationMatchesRecount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialTables, cfg.Databases, cfg.QuotaObjectsPerDB = 300, 7, 1<<40
	f := New(cfg, sim.NewClock())
	check := func(step string, f *Fleet) {
		t.Helper()
		files := map[string]int64{}
		for _, tb := range f.Tables() {
			files[tb.Database()] += int64(tb.FileCount())
		}
		if len(files) != cfg.Databases {
			t.Fatalf("%s: %d databases hold tables, want %d", step, len(files), cfg.Databases)
		}
		for db, n := range files {
			want := float64(n) / float64(cfg.QuotaObjectsPerDB)
			if got := f.QuotaUtilization(db); got != want {
				t.Fatalf("%s: QuotaUtilization(%s) = %v, want %v from %d files", step, db, got, want, n)
			}
		}
		for _, tb := range f.Tables() {
			s, err := Observer{Fleet: f}.Observe(&core.Candidate{Table: tb})
			if err != nil {
				t.Fatal(err)
			}
			if want := f.QuotaUtilization(tb.Database()); s.QuotaUtilization != want {
				t.Fatalf("%s: observed quota of %s = %v, want %v", step, tb.FullName(), s.QuotaUtilization, want)
			}
		}
	}
	check("new", f)
	f.AdvanceDay()
	check("AdvanceDay", f)
	r := Runner{Fleet: f, Model: DefaultModel(cfg.TargetFileSize)}
	if res := r.CompactTable(f.MostFragmented(1)[0]); !res.Succeeded() || res.Reduction() <= 0 {
		t.Fatalf("compaction of the most fragmented table = %+v", res)
	}
	check("compaction", f)
	f.Tables()[4].WriterCommit(17)
	check("WriterCommit", f)
	if !f.DropTable(f.Tables()[9].FullName()) {
		t.Fatal("drop failed")
	}
	check("DropTable", f)
	g, err := Restore(f.Snapshot(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	check("Restore", g)
	g.AdvanceDay()
	check("AdvanceDay after Restore", g)
}

func TestRunDailyScansAccumulatesOpens(t *testing.T) {
	f, _ := smallFleet(8)
	s := f.RunDailyScans()
	if s.TablesScanned == 0 || s.FilesScanned == 0 {
		t.Fatalf("scan stats = %+v", s)
	}
	if f.OpenCalls() != s.FilesScanned {
		t.Fatalf("open calls = %d, scanned = %d", f.OpenCalls(), s.FilesScanned)
	}
	if s.QueryTime <= 0 || s.QueryCost <= 0 {
		t.Fatalf("scan cost = %+v", s)
	}
}

func TestObserverAndConnector(t *testing.T) {
	f, clock := smallFleet(9)
	clock.Advance(48 * 3_600_000_000_000)
	conn := Connector{Fleet: f}
	tables := conn.Tables()
	if len(tables) != f.TableCount() {
		t.Fatal("connector table count")
	}
	obs := Observer{Fleet: f}
	c := &core.Candidate{Table: tables[0], Scope: core.ScopeTable}
	stats, err := obs.Observe(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FileCount == 0 || stats.SmallFiles == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if conn.Now() != clock.Now() {
		t.Fatal("connector clock")
	}
	// Observer rejects non-fleet tables.
	if _, err := obs.Observe(&core.Candidate{Table: nil}); err == nil {
		t.Fatal("nil table accepted")
	}
}

func TestRunnerRejectsForeignTables(t *testing.T) {
	f, _ := smallFleet(10)
	r := Runner{Fleet: f, Model: DefaultModel(512 * storage.MB)}
	res := r.Run(&core.Candidate{Table: nil})
	if res.Err == nil {
		t.Fatal("nil table accepted")
	}
}

func TestCompactSkipsHealthyTable(t *testing.T) {
	f, _ := smallFleet(11)
	tbl := f.Tables()[0]
	tbl.counts = [3]int64{0, 0, 100}
	tbl.bytes = [3]int64{0, 0, 100 * 700 * storage.MB}
	r := Runner{Fleet: f, Model: DefaultModel(512 * storage.MB)}
	if res := r.CompactTable(tbl); !res.Skipped {
		t.Fatalf("healthy table compacted: %+v", res)
	}
}

// TestComponentRNGStreamsIndependent pins the per-component stream
// split: a fleet that additionally runs scans and compactions between
// days must see exactly the organic write growth of an untouched twin —
// execution- and scan-side draws come from their own streams, so
// running maintenance (or attaching a fault injector) never perturbs
// the write pattern. Before the split, compaction cost jitter consumed
// the shared stream and every subsequent write draw shifted.
func TestComponentRNGStreamsIndependent(t *testing.T) {
	build := func() *Fleet {
		cfg := DefaultConfig()
		cfg.Seed = 21
		cfg.InitialTables = 120
		return New(cfg, sim.NewClock())
	}
	quiet, busy := build(), build()
	model := DefaultModel(512 * storage.MB)
	for d := 1; d <= 5; d++ {
		// The busy twin scans and compacts its hottest tables daily.
		busy.RunDailyScans()
		r := Runner{Fleet: busy, Model: model}
		for _, tb := range busy.MostFragmented(10) {
			r.CompactTable(tb)
		}
		qBefore, bBefore := quiet.TotalFiles(), busy.TotalFiles()
		quiet.AdvanceDay()
		busy.AdvanceDay()
		qGrow, bGrow := quiet.TotalFiles()-qBefore, busy.TotalFiles()-bBefore
		if qGrow != bGrow {
			t.Fatalf("day %d: organic growth diverged (%d vs %d files) — scan/exec draws leaked into the write stream",
				d, qGrow, bGrow)
		}
	}
}

// TestDropThenOnboardNeverReusesNames pins the monotonic onboarding
// counter: after a drop, newly onboarded tables must not reuse a live
// table's name (name-keyed structures — changefeed tracker, stats
// cache, leases — would conflate the twins).
func TestDropThenOnboardNeverReusesNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.InitialTables = 50
	cfg.TablesPerMonth = 60
	f := New(cfg, sim.NewClock())
	victim := f.Tables()[10].FullName()
	if !f.DropTable(victim) {
		t.Fatal("drop failed")
	}
	for d := 0; d < 3; d++ {
		f.AdvanceDay()
	}
	seen := make(map[string]bool, f.TableCount())
	for _, tb := range f.Tables() {
		name := tb.FullName()
		if seen[name] {
			t.Fatalf("duplicate live table name %s after drop+onboard", name)
		}
		seen[name] = true
		if name == victim {
			t.Fatalf("dropped table's name %s reused", victim)
		}
	}
}
