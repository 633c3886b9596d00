package fleet

import (
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func candFor(t *Table) *core.Candidate {
	return &core.Candidate{Table: t, Scope: core.ScopeTable}
}

// Tests for workload drift (§7: users adjust workflows daily, so a fixed
// manual compaction list goes stale).

func TestDriftChangesGrowthRates(t *testing.T) {
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.InitialTables = 200
	cfg.DailyDriftProb = 0.5 // aggressive, to observe quickly
	f := New(cfg, clock)

	before := map[string]float64{}
	for _, tbl := range f.Tables() {
		before[tbl.FullName()] = tbl.growthPerDay
	}
	for d := 0; d < 5; d++ {
		f.AdvanceDay()
	}
	changed := 0
	for _, tbl := range f.Tables() {
		if prev, ok := before[tbl.FullName()]; ok && tbl.growthPerDay != prev {
			changed++
		}
	}
	if changed < 100 {
		t.Fatalf("drift changed only %d/200 growth rates", changed)
	}
}

func TestNoDriftKeepsGrowthRates(t *testing.T) {
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.InitialTables = 100
	cfg.DailyDriftProb = 0
	f := New(cfg, clock)
	before := map[string]float64{}
	for _, tbl := range f.Tables() {
		before[tbl.FullName()] = tbl.growthPerDay
	}
	for d := 0; d < 5; d++ {
		f.AdvanceDay()
	}
	for _, tbl := range f.Tables() {
		if prev, ok := before[tbl.FullName()]; ok && tbl.growthPerDay != prev {
			t.Fatalf("growth rate drifted with DailyDriftProb=0: %s", tbl.FullName())
		}
	}
}

func TestManualListGoesStaleUnderDrift(t *testing.T) {
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.InitialTables = 800
	cfg.DailyDriftProb = 0.02
	f := New(cfg, clock)

	manual := map[string]bool{}
	for _, tbl := range f.MostFragmented(50) {
		manual[tbl.FullName()] = true
	}
	// After months of drift, the currently most-fragmented set has
	// rotated away from the original selection.
	runner := Runner{Fleet: f, Model: DefaultModel(512 * storage.MB)}
	fixed := f.MostFragmented(50)
	for d := 0; d < 120; d++ {
		f.AdvanceDay()
		runner.CompactTables(fixed) // keep the fixed set healthy
	}
	stale := 0
	for _, tbl := range f.MostFragmented(50) {
		if !manual[tbl.FullName()] {
			stale++
		}
	}
	if stale < 25 {
		t.Fatalf("manual list still covers the hot set: only %d/50 rotated", stale)
	}
}

func TestFleetObserverExposesReadRate(t *testing.T) {
	f, _ := smallFleet(12)
	obs := Observer{Fleet: f}
	tbl := f.Tables()[0]
	stats, err := obs.Observe(candFor(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.scanShare == 0 {
		t.Fatal("table has no scan share to expose")
	}
	if got := stats.ReadRate; got != tbl.scanShare {
		t.Fatalf("ReadRate = %v, want %v", got, tbl.scanShare)
	}
}
