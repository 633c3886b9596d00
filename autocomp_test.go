package autocomp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func facadeLake(t *testing.T) (*catalog.ControlPlane, *cluster.Cluster, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	cp := catalog.New(fs, clock)
	cc := cluster.New(cluster.CompactionClusterConfig(), clock)
	return cp, cc, clock
}

func fragment(t *testing.T, cp *catalog.ControlPlane, db, name string, files int) *lst.Table {
	t.Helper()
	if _, err := cp.CreateDatabase(db, "tenant", 0); err != nil &&
		err.Error() != "catalog: database already exists: "+db {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable(db, lst.TableConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]lst.FileSpec, files)
	for i := range specs {
		specs[i] = lst.FileSpec{SizeBytes: 8 << 20, RowCount: 100}
	}
	if _, err := tbl.AppendFiles(specs); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewDefaultsAndRunOnce(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	tbl := fragment(t, cp, "sales", "orders", 30)
	clock.Advance(48 * time.Hour)

	ledger := &EstimatorLedger{}
	svc, err := New(Options{
		Catalog:  cp,
		Cluster:  cc,
		TopK:     5,
		OnReport: []func(*Report){ledger.Observe},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesReduced != 29 { // 30 small files → 1
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	if tbl.FileCount() != 1 {
		t.Fatalf("file count = %d", tbl.FileCount())
	}
	if len(ledger.Records()) != 1 {
		t.Fatal("feedback ledger empty")
	}
}

func TestNewAgeFilterSkipsFreshTables(t *testing.T) {
	cp, cc, _ := facadeLake(t)
	fragment(t, cp, "sales", "fresh", 30) // created "now"
	svc, err := New(Options{Catalog: cp, Cluster: cc, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decision.AfterPreFilters != 0 {
		t.Fatalf("fresh table not filtered: %d", rep.Decision.AfterPreFilters)
	}
}

func TestNewBudgetSelection(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	for i := 0; i < 6; i++ {
		fragment(t, cp, "sales", "t"+string(rune('a'+i)), 20)
	}
	clock.Advance(48 * time.Hour)
	// Each candidate costs ~192GB × 160MB/1.8TBph ≈ 0.017 GBHr; a budget
	// of 0.04 admits 2.
	svc, err := New(Options{Catalog: cp, Cluster: cc, BudgetGBHr: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Decision.Selected); got == 0 || got >= 6 {
		t.Fatalf("budget selected %d of 6", got)
	}
}

func TestNewQuotaAdaptive(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	fragment(t, cp, "sales", "orders", 10)
	clock.Advance(48 * time.Hour)
	svc, err := New(Options{Catalog: cp, Cluster: cc, QuotaAdaptive: true, TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunOnce(); err != nil {
		t.Fatal(err)
	}
}

func TestNewHybridScope(t *testing.T) {
	cp, cc, clock := facadeLake(t)
	if _, err := cp.CreateDatabase("logs", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable("logs", lst.TableConfig{
		Name: "events",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	})
	if err != nil {
		t.Fatal(err)
	}
	var specs []lst.FileSpec
	for _, p := range []string{"d1", "d2", "d3"} {
		for i := 0; i < 10; i++ {
			specs = append(specs, lst.FileSpec{Partition: p, SizeBytes: 4 << 20, RowCount: 10})
		}
	}
	if _, err := tbl.AppendFiles(specs); err != nil {
		t.Fatal(err)
	}
	clock.Advance(48 * time.Hour)

	svc, err := New(Options{Catalog: cp, Cluster: cc, HybridScope: true, TopK: 100})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	// Three partition-scope candidates, each 10 → 1.
	if len(rep.Results) != 3 || rep.FilesReduced != 27 {
		t.Fatalf("results = %d, reduced = %d", len(rep.Results), rep.FilesReduced)
	}
}

// TestNewRequiresCatalogAndCluster: missing substrate pieces are
// reported by name instead of dereferenced.
func TestNewRequiresCatalogAndCluster(t *testing.T) {
	cp, cc, _ := facadeLake(t)
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "Options.Catalog"},
		{Options{Cluster: cc}, "Options.Catalog"},
		{Options{Catalog: cp}, "Options.Cluster"},
	} {
		svc, err := New(tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("New(%+v) = %v, %v; want an error naming %s", tc.opts, svc, err, tc.want)
		}
	}
}

// handWired is the facade's configuration before it compiled a policy
// spec, kept verbatim as the reference New must decide and act like.
func handWired(opts Options) (*Service, error) {
	if opts.TargetFileSize <= 0 {
		opts.TargetFileSize = 512 << 20
	}
	if opts.BenefitWeight == 0 && opts.CostWeight == 0 {
		opts.BenefitWeight, opts.CostWeight = 0.7, 0.3
	}
	if opts.MinTableAge == 0 {
		opts.MinTableAge = 24 * time.Hour
	}
	if opts.MinSmallFiles == 0 {
		opts.MinSmallFiles = 2
	}

	clock := opts.Catalog.Clock()
	exec := &compaction.Executor{
		Cluster:        opts.Cluster,
		TargetFileSize: opts.TargetFileSize,
		AppPrefix:      "compaction/",
	}
	ccfg := opts.Cluster.Config()
	slots := float64(ccfg.Executors * ccfg.ExecutorCores)
	perSlot := 1 / (1/ccfg.ScanBytesPerSec + 1/ccfg.WriteBytesPerSec)
	cost := core.ComputeCost{
		ExecutorMemoryGB:    ccfg.ExecutorMemoryGB * float64(ccfg.Executors),
		RewriteBytesPerHour: perSlot * slots * 3600,
	}

	var gen core.Generator = core.TableScopeGenerator{}
	if opts.HybridScope {
		gen = core.HybridScopeGenerator{}
	}
	var sel core.Selector = core.SelectAll{}
	switch {
	case opts.BudgetGBHr > 0:
		sel = core.BudgetSelector{BudgetGBHr: opts.BudgetGBHr}
	case opts.TopK > 0:
		sel = core.TopK{K: opts.TopK}
	}
	ranker := core.MOOPRanker{Objectives: []core.Objective{
		{Trait: core.FileCountReduction{}, Weight: opts.BenefitWeight},
		{Trait: cost, Weight: opts.CostWeight},
	}}
	if opts.QuotaAdaptive {
		ranker.DynamicWeights = core.QuotaAdaptiveWeights()
	}

	return core.NewService(core.Config{
		Connector: core.CatalogConnector{CP: opts.Catalog},
		Generator: gen,
		PreFilters: []core.Filter{
			core.MinTableAge{Min: opts.MinTableAge, Now: clock.Now},
			core.NotIntermediate{},
		},
		Observer: core.StatsObserver{
			TargetFileSize: opts.TargetFileSize,
			Quota:          opts.Catalog.QuotaUtilization,
		},
		StatsFilters: []core.Filter{core.MinSmallFiles{Min: opts.MinSmallFiles}},
		Traits:       []core.Trait{core.FileCountReduction{}, cost},
		Ranker:       ranker,
		Selector:     sel,
		Runner:       core.ExecutorRunner{Exec: exec},
		OnReport:     opts.OnReport,
	})
}

// parityLake builds a lake that exercises every option: two databases
// (one under quota pressure), partitioned and unpartitioned tables with
// from 1 to 40 small files next to large ones, an intermediate table,
// and tables created 2h before the cycle.
func parityLake(t *testing.T) (*catalog.ControlPlane, *cluster.Cluster) {
	t.Helper()
	cp, cc, clock := facadeLake(t)
	if _, err := cp.CreateDatabase("sales", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateDatabase("logs", "tenant", 600); err != nil {
		t.Fatal(err)
	}
	load := func(db string, cfg lst.TableConfig, parts []string, small, large int) {
		tbl, err := cp.CreateTable(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var specs []lst.FileSpec
		for _, p := range parts {
			for i := 0; i < small; i++ {
				specs = append(specs, lst.FileSpec{Partition: p, SizeBytes: int64(4+i%7) << 20, RowCount: 100})
			}
			for i := 0; i < large; i++ {
				specs = append(specs, lst.FileSpec{Partition: p, SizeBytes: 700 << 20, RowCount: 1000})
			}
		}
		if _, err := tbl.AppendFiles(specs); err != nil {
			t.Fatal(err)
		}
	}
	daily := lst.PartitionSpec{Column: "day", Transform: lst.TransformDay}
	for i, small := range []int{1, 2, 5, 12, 40} {
		load("sales", lst.TableConfig{Name: fmt.Sprintf("s%d", i)}, []string{""}, small, i%2)
		load("logs", lst.TableConfig{Name: fmt.Sprintf("l%d", i)}, []string{""}, small+3, 1)
	}
	load("logs", lst.TableConfig{Name: "events", Spec: daily}, []string{"d1", "d2", "d3"}, 9, 0)
	load("sales", lst.TableConfig{Name: "orders", Spec: daily}, []string{"d1", "d2"}, 25, 1)
	load("sales", lst.TableConfig{Name: "scratch", Props: map[string]string{"intermediate": "true"}}, []string{""}, 30, 0)
	clock.Advance(48 * time.Hour)
	load("sales", lst.TableConfig{Name: "fresh"}, []string{""}, 35, 0)
	load("logs", lst.TableConfig{Name: "fresh_events", Spec: daily}, []string{"d1", "d2"}, 8, 0)
	clock.Advance(2 * time.Hour)
	return cp, cc
}

// TestNewMatchesHandWiredReference: for every option New interprets,
// the compiled pipeline makes the hand-wired reference's decision and
// acts it out with the same outcome, on identical lakes.
func TestNewMatchesHandWiredReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"defaults", Options{}},
		{"top-k", Options{TopK: 3}},
		{"budget", Options{BudgetGBHr: 0.05}},
		{"budget over top-k", Options{BudgetGBHr: 0.05, TopK: 1}},
		{"hybrid", Options{HybridScope: true, TopK: 6}},
		{"quota-adaptive", Options{QuotaAdaptive: true, TopK: 4}},
		{"custom weights", Options{BenefitWeight: 0.2, CostWeight: 0.8, TopK: 5}},
		{"target file size", Options{TargetFileSize: 8 << 20}},
		{"custom min table age", Options{MinTableAge: time.Hour}},
		{"no min table age", Options{MinTableAge: -1}},
		{"custom min small files", Options{MinSmallFiles: 10}},
		{"no min small files", Options{MinSmallFiles: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(build func(Options) (*Service, error)) *Report {
				opts := tc.opts
				opts.Catalog, opts.Cluster = parityLake(t)
				svc, err := build(opts)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := svc.RunOnce()
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			got, want := run(New), run(handWired)
			if g, w := testkit.DecisionFingerprint(got.Decision), testkit.DecisionFingerprint(want.Decision); g != w {
				t.Fatalf("decision diverges from the reference:\n got: %s\nwant: %s", testkit.Head(g, 20), testkit.Head(w, 20))
			}
			if len(got.Decision.Selected) == 0 {
				t.Fatal("nothing selected: the case exercises no compaction")
			}
			type totals struct {
				Results, FilesReduced, MetadataReduced int
				BytesRewritten                         int64
				ActualGBHr                             float64
				Conflicts, Skipped, Errors             int
			}
			sum := func(r *Report) totals {
				return totals{len(r.Results), r.FilesReduced, r.MetadataReduced, r.BytesRewritten,
					r.ActualGBHr, r.Conflicts, r.Skipped, r.Errors}
			}
			if g, w := sum(got), sum(want); g != w {
				t.Fatalf("report totals = %+v, reference %+v", g, w)
			}
		})
	}
}
