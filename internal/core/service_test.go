package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/lst"
	"autocomp/internal/storage"
)

// fakeTable satisfies Table for tests that do not need a real LST.
type fakeTable struct {
	name  string
	parts []string
}

func (f fakeTable) Database() string {
	for i := 0; i < len(f.name); i++ {
		if f.name[i] == '.' {
			return f.name[:i]
		}
	}
	return f.name
}
func (f fakeTable) Name() string                           { return f.name }
func (f fakeTable) FullName() string                       { return f.name }
func (f fakeTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (f fakeTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (f fakeTable) Prop(string) string                     { return "" }
func (f fakeTable) Created() time.Duration                 { return 0 }
func (f fakeTable) LastWrite() time.Duration               { return 0 }
func (f fakeTable) FileCount() int                         { return 0 }
func (f fakeTable) TotalBytes() int64                      { return 0 }
func (f fakeTable) Partitions() []string                   { return f.parts }
func (f fakeTable) LiveFiles() []lst.DataFile              { return nil }
func (f fakeTable) FilesInPartition(string) []lst.DataFile { return nil }

// --- schedulers ---

func TestSequentialScheduler(t *testing.T) {
	cands := []*Candidate{mkCand("a.1", nil), mkCand("a.2", nil)}
	plan := SequentialScheduler{}.Plan(cands)
	if len(plan) != 2 || len(plan[0]) != 1 {
		t.Fatalf("plan = %v", plan)
	}
}

func TestTablesParallelPartitionsSequential(t *testing.T) {
	t1 := fakeTable{name: "db.t1"}
	t2 := fakeTable{name: "db.t2"}
	cands := []*Candidate{
		{Table: t1, Scope: ScopePartition, Partition: "p1"},
		{Table: t1, Scope: ScopePartition, Partition: "p2"},
		{Table: t2, Scope: ScopePartition, Partition: "p1"},
		{Table: t1, Scope: ScopePartition, Partition: "p3"},
	}
	plan := TablesParallelPartitionsSequential{}.Plan(cands)
	// Round 0: t1/p1 + t2/p1 (different tables in parallel).
	// Round 1: t1/p2. Round 2: t1/p3.
	if len(plan) != 3 {
		t.Fatalf("rounds = %d", len(plan))
	}
	if len(plan[0]) != 2 {
		t.Fatalf("round0 = %d", len(plan[0]))
	}
	// Never two work units of the same table in one round.
	for _, round := range plan {
		seen := map[string]bool{}
		for _, c := range round {
			if seen[c.Table.FullName()] {
				t.Fatalf("same table twice in round: %v", c.Table.FullName())
			}
			seen[c.Table.FullName()] = true
		}
	}
}

func TestSchedulerMaxParallel(t *testing.T) {
	var cands []*Candidate
	for i := 0; i < 5; i++ {
		cands = append(cands, &Candidate{Table: fakeTable{name: "db.t" + itoa(i)}, Scope: ScopeTable})
	}
	plan := TablesParallelPartitionsSequential{MaxParallel: 2}.Plan(cands)
	total := 0
	for _, round := range plan {
		if len(round) > 2 {
			t.Fatalf("round exceeds max parallel: %d", len(round))
		}
		total += len(round)
	}
	if total != 5 {
		t.Fatalf("plan lost candidates: %d", total)
	}
}

// TestActRunsSchedulerRounds pins that Act runs a decision's selection
// in the rounds the configured scheduler plans, round by round, and not
// in selection order.
func TestActRunsSchedulerRounds(t *testing.T) {
	t1, t2 := fakeTable{name: "t1"}, fakeTable{name: "t2"}
	d := &Decision{Selected: []*Candidate{
		{Table: t1, Scope: ScopePartition, Partition: "p1"},
		{Table: t1, Scope: ScopePartition, Partition: "p2"},
		{Table: t2, Scope: ScopePartition, Partition: "p1"},
		{Table: t1, Scope: ScopePartition, Partition: "p3"},
	}}
	l := newLake(t)
	for _, tc := range []struct {
		sched Scheduler
		want  string
	}{
		{TablesParallelPartitionsSequential{}, "t1/p1 t2/p1 t1/p2 t1/p3"},
		{SequentialScheduler{}, "t1/p1 t1/p2 t2/p1 t1/p3"},
	} {
		var ran []string
		svc, err := NewService(Config{
			Connector: l.connector(),
			Generator: PartitionScopeGenerator{},
			Observer:  l.observer(),
			Traits:    []Trait{FileCountReduction{}},
			Ranker:    MOOPRanker{Objectives: []Objective{{Trait: FileCountReduction{}, Weight: 1}}},
			Scheduler: tc.sched,
			Runner: RunnerFunc(func(c *Candidate) compaction.Result {
				ran = append(ran, c.ID())
				return compaction.Result{Table: c.Table.FullName()}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := svc.Act(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(ran, " "); got != tc.want {
			t.Fatalf("%T ran %q, want %q", tc.sched, got, tc.want)
		}
		if len(rep.Results) != len(d.Selected) {
			t.Fatalf("%T: %d results for %d selected", tc.sched, len(rep.Results), len(d.Selected))
		}
	}
}

// --- service end to end ---

func buildService(t *testing.T, l *lake, selector Selector) *Service {
	t.Helper()
	svc, err := NewService(Config{
		Connector: l.connector(),
		Generator: HybridScopeGenerator{},
		Observer:  l.observer(),
		StatsFilters: []Filter{
			MinSmallFiles{Min: 2},
		},
		Traits: []Trait{
			FileCountReduction{},
			ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: float64(200 * storage.GB)},
		},
		Ranker: MOOPRanker{Objectives: []Objective{
			{Trait: FileCountReduction{}, Weight: 0.7},
			{Trait: ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: float64(200 * storage.GB)}, Weight: 0.3},
		}},
		Selector:  selector,
		Scheduler: TablesParallelPartitionsSequential{},
		Runner:    ExecutorRunner{Exec: l.exec},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestServiceValidation(t *testing.T) {
	l := newLake(t)
	if _, err := NewService(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewService(Config{Connector: l.connector()}); err == nil {
		t.Fatal("missing generator accepted")
	}
	// Invalid MOOP weights rejected via Validate.
	_, err := NewService(Config{
		Connector: l.connector(),
		Generator: TableScopeGenerator{},
		Observer:  l.observer(),
		Traits:    []Trait{FileCountReduction{}},
		Ranker:    MOOPRanker{Objectives: []Objective{{Trait: FileCountReduction{}, Weight: 0.4}}},
	})
	if err == nil {
		t.Fatal("invalid weights accepted")
	}
}

func TestServiceRunOnceCompactsWorstTables(t *testing.T) {
	l := newLake(t)
	// Fragmented table: 40 small files across 2 partitions.
	l.addTable(t, "db1", "frag", true, []partLayout{
		{"2024-01", 20, 20 * mb},
		{"2024-02", 20, 20 * mb},
	})
	// Healthy table: files at target.
	l.addTable(t, "db1", "healthy", false, []partLayout{{"", 4, 600 * mb}})
	l.clock.Advance(time.Hour)

	svc := buildService(t, l, TopK{K: 10})
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision.Generated != 3 { // 2 partitions + 1 table scope
		t.Fatalf("generated = %d", rep.Decision.Generated)
	}
	// The healthy table is filtered (0 small files).
	if rep.Decision.AfterStatsFilter != 2 {
		t.Fatalf("after stats filter = %d", rep.Decision.AfterStatsFilter)
	}
	if rep.FilesReduced != 38 { // each partition: 20 → 1
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	if rep.Conflicts != 0 || rep.Errors != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ActualGBHr <= 0 {
		t.Fatal("no GBHr accounted")
	}
	frag, _ := l.cp.Table("db1", "frag")
	if frag.FileCount() != 2 {
		t.Fatalf("frag file count = %d", frag.FileCount())
	}
}

func TestServiceTopKLimitsWork(t *testing.T) {
	l := newLake(t)
	for i := 0; i < 6; i++ {
		l.addTable(t, "db1", "t"+itoa(i), false, []partLayout{{"", 10, 10 * mb}})
	}
	l.clock.Advance(time.Hour)
	svc := buildService(t, l, TopK{K: 2})
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decision.Selected) != 2 {
		t.Fatalf("selected = %d", len(rep.Decision.Selected))
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
}

func TestServiceBudgetSelectorDynamicK(t *testing.T) {
	l := newLake(t)
	for i := 0; i < 8; i++ {
		l.addTable(t, "db1", "t"+itoa(i), false, []partLayout{{"", 10, 50 * mb}})
	}
	l.clock.Advance(time.Hour)
	// Each candidate costs 64 × 500MB/200GB/hr ≈ 0.156 GBHr; a budget of
	// 0.5 GBHr admits 3.
	svc := buildService(t, l, BudgetSelector{BudgetGBHr: 0.5})
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decision.Selected) != 3 {
		t.Fatalf("dynamic k = %d", len(rep.Decision.Selected))
	}
}

func TestServiceDecideWithoutRunner(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "a", false, []partLayout{{"", 5, 10 * mb}})
	l.clock.Advance(time.Hour)
	svc, err := NewService(Config{
		Connector: l.connector(),
		Generator: TableScopeGenerator{},
		Observer:  l.observer(),
		Traits:    []Trait{FileCountReduction{}},
		Ranker:    ThresholdPolicy{Trait: FileCountReduction{}, Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Selected) != 1 {
		t.Fatalf("selected = %d", len(d.Selected))
	}
	if _, err := svc.Act(d); err == nil {
		t.Fatal("Act without runner should fail")
	}
}

func TestEstimatorLedgerFeedback(t *testing.T) {
	l := newLake(t)
	// Partitioned table with one lone small file per partition: the
	// table-level ΔF estimator counts them all, but none can merge, so
	// the actual reduction is lower (the §7 overestimation).
	l.addTable(t, "db1", "sparse", true, []partLayout{
		{"2024-01", 1, 10 * mb},
		{"2024-02", 1, 10 * mb},
		{"2024-03", 4, 10 * mb},
	})
	l.clock.Advance(time.Hour)

	ledger := &EstimatorLedger{}
	svc, err := NewService(Config{
		Connector: l.connector(),
		Generator: TableScopeGenerator{},
		Observer:  l.observer(),
		Traits: []Trait{
			FileCountReduction{},
			ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: float64(200 * storage.GB)},
		},
		Ranker:   MOOPRanker{Objectives: []Objective{{Trait: FileCountReduction{}, Weight: 1}}},
		Runner:   ExecutorRunner{Exec: l.exec},
		OnReport: []func(*Report){ledger.Observe},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunOnce(); err != nil {
		t.Fatal(err)
	}
	recs := ledger.Records()
	if len(recs) != 1 {
		t.Fatalf("ledger records = %d", len(recs))
	}
	r := recs[0]
	if r.EstimatedReduction != 6 {
		t.Fatalf("estimated ΔF = %v", r.EstimatedReduction)
	}
	// Actual: only 2024-03 merges (4 → 1 = 3); lone files unmergeable.
	if r.ActualReduction != 3 {
		t.Fatalf("actual reduction = %v", r.ActualReduction)
	}
	if ledger.ReductionOverestimationPct() <= 0 {
		t.Fatal("overestimation not positive")
	}
}

func TestRunnerFuncAndBadTable(t *testing.T) {
	called := false
	r := RunnerFunc(func(c *Candidate) compaction.Result {
		called = true
		return compaction.Result{Table: c.Table.FullName()}
	})
	r.Run(&Candidate{Table: fakeTable{name: "x.y"}})
	if !called {
		t.Fatal("runner func not called")
	}
	// ExecutorRunner rejects non-LST tables.
	er := ExecutorRunner{}
	res := er.Run(&Candidate{Table: fakeTable{name: "x.y"}})
	if res.Err == nil {
		t.Fatal("non-LST table accepted")
	}
	if _, err := er.StartCandidate(&Candidate{Table: fakeTable{name: "x.y"}}); err == nil {
		t.Fatal("StartCandidate accepted non-LST table")
	}
}

func TestServiceSnapshotScope(t *testing.T) {
	l := newLake(t)
	tbl := l.addTable(t, "db1", "a", false, []partLayout{{"", 10, 10 * mb}})
	l.clock.Advance(3 * time.Hour)
	// Fresh small files within the window.
	tbl.AppendFiles([]lst.FileSpec{
		{SizeBytes: 5 * mb, RowCount: 1},
		{SizeBytes: 5 * mb, RowCount: 1},
		{SizeBytes: 5 * mb, RowCount: 1},
	})
	svc, err := NewService(Config{
		Connector: l.connector(),
		Generator: SnapshotScopeGenerator{Window: time.Hour, Now: l.clock.Now},
		Observer:  l.observer(),
		Traits:    []Trait{FileCountReduction{}},
		Ranker:    ThresholdPolicy{Trait: FileCountReduction{}, Threshold: 2},
		Runner:    ExecutorRunner{Exec: l.exec},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	// Only the 3 fresh files merge (3 → 1); the 10 older files remain.
	if rep.FilesReduced != 2 {
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	if tbl.FileCount() != 11 {
		t.Fatalf("file count = %d", tbl.FileCount())
	}
}

// failingObserver fails its failAt-th call (never when failAt is 0).
type failingObserver struct{ calls, failAt int }

func (o *failingObserver) Observe(*Candidate) (Stats, error) {
	o.calls++
	if o.calls == o.failAt {
		return Stats{}, errors.New("observe failed")
	}
	return Stats{SmallFiles: 2}, nil
}

// TestRefineCountsObserveCalls pins the observation counters one
// Refine pass moves: every call on success, and on an observer error
// the calls made, the failing one included, plus one error.
func TestRefineCountsObserveCalls(t *testing.T) {
	var tables []Table
	for i := 0; i < 5; i++ {
		tables = append(tables, fakeTable{name: "db.t" + itoa(i)})
	}
	for _, tc := range []struct{ failAt, calls, errs int }{{0, 5, 0}, {3, 3, 1}, {1, 1, 1}} {
		obs := &failingObserver{failAt: tc.failAt}
		svc, err := NewService(Config{
			Connector: StaticConnector{TableList: tables},
			Generator: TableScopeGenerator{},
			Observer:  obs,
			Traits:    []Trait{FileCountReduction{}},
			Ranker:    ThresholdPolicy{Trait: FileCountReduction{}, Threshold: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		calls, errs := mObserve.Value(), mObserveErrors.Value()
		_, err = svc.cfg.Refine(TableScopeGenerator{}.Candidates(tables), &Decision{})
		if (err != nil) != (tc.errs > 0) {
			t.Fatalf("fail at %d: Refine error = %v", tc.failAt, err)
		}
		if got := mObserve.Value() - calls; got != float64(tc.calls) {
			t.Fatalf("fail at %d: observe calls counted %v, want %d", tc.failAt, got, tc.calls)
		}
		if got := mObserveErrors.Value() - errs; got != float64(tc.errs) {
			t.Fatalf("fail at %d: observe errors counted %v, want %d", tc.failAt, got, tc.errs)
		}
	}
}
