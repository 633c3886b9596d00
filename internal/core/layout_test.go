package core

import (
	"testing"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/lst"
)

// Tests for the §8 layout-optimization and workload-awareness extensions
// flowing through the full pipeline.

func TestLayoutDebtTrait(t *testing.T) {
	c := &Candidate{Stats: Stats{UnclusteredBytes: 100}}
	if (LayoutDebt{}).Value(c) != 100 {
		t.Fatal("layout debt trait")
	}
	if (LayoutDebt{}).Direction() != Benefit {
		t.Fatal("layout debt direction")
	}
}

func TestAccessFrequencyTrait(t *testing.T) {
	c := &Candidate{Stats: Stats{ReadRate: 0.4}}
	if (AccessFrequency{}).Value(c) != 0.4 {
		t.Fatal("access frequency trait")
	}
	if (AccessFrequency{}).Value(&Candidate{}) != 0 {
		t.Fatal("missing read rate must read 0")
	}
}

func TestObserverTracksUnclusteredBytes(t *testing.T) {
	l := newLake(t)
	tbl := l.addTable(t, "db1", "a", false, nil)
	tbl.AppendFiles([]lst.FileSpec{
		{SizeBytes: 10 * mb, RowCount: 1},
		{SizeBytes: 20 * mb, RowCount: 1, Clustered: true},
	})
	c := &Candidate{Table: tbl, Scope: ScopeTable}
	stats, err := l.observer().Observe(c)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UnclusteredBytes != 10*mb {
		t.Fatalf("unclustered bytes = %d", stats.UnclusteredBytes)
	}
}

// The full loop: a service whose executor clusters data ranks by layout
// debt, compacts, and afterwards the lake's layout debt is gone.
func TestServiceWithClusteringExecutor(t *testing.T) {
	l := newLake(t)
	l.addTable(t, "db1", "hot", false, []partLayout{{"", 20, 10 * mb}})
	l.clock.Advance(time.Hour)

	zExec := &compaction.Executor{
		Cluster:        l.comp,
		TargetFileSize: target,
		ClusterData:    true,
		AppPrefix:      "layout/",
	}
	svc, err := NewService(Config{
		Connector: l.connector(),
		Generator: TableScopeGenerator{},
		Observer:  l.observer(),
		Traits:    []Trait{FileCountReduction{}, LayoutDebt{}},
		Ranker: MOOPRanker{Objectives: []Objective{
			{Trait: FileCountReduction{}, Weight: 0.5},
			{Trait: LayoutDebt{}, Weight: 0.5},
		}},
		Runner: ExecutorRunner{Exec: zExec},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesReduced != 19 {
		t.Fatalf("files reduced = %d", rep.FilesReduced)
	}
	// Re-observe: no layout debt remains.
	tbl, _ := l.cp.Table("db1", "hot")
	c := &Candidate{Table: tbl, Scope: ScopeTable}
	stats, _ := l.observer().Observe(c)
	if stats.UnclusteredBytes != 0 {
		t.Fatalf("layout debt remains: %d bytes", stats.UnclusteredBytes)
	}
}
