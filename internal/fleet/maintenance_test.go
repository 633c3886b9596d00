package fleet

import (
	"strings"
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func TestMetadataAccretesWithWrites(t *testing.T) {
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.InitialTables = 20
	f := New(cfg, clock)

	before := f.TotalMetadataObjects()
	if before == 0 {
		t.Fatal("onboarded tables carry no metadata history")
	}
	for d := 0; d < 10; d++ {
		f.AdvanceDay()
	}
	after := f.TotalMetadataObjects()
	if after <= before {
		t.Fatalf("metadata objects %d -> %d after 10 days of writes", before, after)
	}
	if f.TotalObjects() != f.TotalFiles()+after {
		t.Fatal("TotalObjects != files + metadata")
	}
}

func TestFleetTableMaintenanceActions(t *testing.T) {
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.InitialTables = 5
	f := New(cfg, clock)
	for d := 0; d < 30; d++ {
		f.AdvanceDay()
	}
	tbl := f.Tables()[0]

	ms := tbl.MetadataStats()
	if ms.Objects == 0 || ms.Snapshots == 0 || ms.Bytes == 0 {
		t.Fatalf("stats = %+v", ms)
	}

	est := tbl.ExpireEstimate(5)
	n, err := tbl.ExpireSnapshots(5)
	if err != nil {
		t.Fatal(err)
	}
	if n != est || n <= 0 {
		t.Fatalf("expire deleted %d, estimate %d", n, est)
	}
	if tbl.MetadataStats().Snapshots != 5 {
		t.Fatalf("snapshots after expire = %d", tbl.MetadataStats().Snapshots)
	}

	res, err := tbl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped || res.Reduction() <= 0 {
		t.Fatalf("checkpoint = %+v", res)
	}
	after := tbl.MetadataStats()
	if after.Objects != 2 || after.Checkpoints != 1 || after.VersionsSinceCheckpoint != 0 {
		t.Fatalf("after checkpoint: %+v", after)
	}

	// Re-checkpoint with no new commits: nothing to do.
	res, err = tbl.Checkpoint()
	if err != nil || !res.Skipped {
		t.Fatalf("second checkpoint = %+v, %v", res, err)
	}
}

func TestMaintenanceServiceHoldsMetadataSteady(t *testing.T) {
	newAged := func() *Fleet {
		cfg := DefaultConfig()
		cfg.InitialTables = 60
		return New(cfg, sim.NewClock())
	}
	budget := policy.Component{Name: "budget", Params: map[string]any{"budget_gbhr": float64(226 * 1024)}}
	dataSpec := policy.DefaultDataSpec(true)
	dataSpec.Selector = &budget
	unifiedSpec := policy.DefaultSpec()
	unifiedSpec.Selector = &budget
	unifiedSpec.Execution = nil
	unifiedSpec.Maintenance = &policy.MaintenanceSpec{
		RetainSnapshots: 20, CheckpointEveryVersions: 50, MinManifestSurplus: 8,
	}
	run := func(f *Fleet, spec *policy.Spec) int64 {
		ss, err := f.ServiceFromSpec(spec, DefaultModel(512*storage.MB), SpecRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 40; d++ {
			f.AdvanceDay()
			if _, err := ss.Svc.RunOnce(); err != nil {
				t.Fatal(err)
			}
		}
		return f.TotalMetadataObjects()
	}
	dataOnly := run(newAged(), dataSpec)
	unified := run(newAged(), unifiedSpec)
	if unified >= dataOnly {
		t.Fatalf("unified metadata %d >= data-only %d", unified, dataOnly)
	}
}

// TestUncomputedMetadataSlotReadsZero runs the unified spec with and
// without metadata_reduction in its traits. Without it the trait's fixed
// slot reads 0: every maintenance result's decide-time estimate is 0,
// though its candidate's stats show reducible metadata, while data
// results still carry ΔF and GBHr, and Explain shows no
// metadata_reduction column.
func TestUncomputedMetadataSlotReadsZero(t *testing.T) {
	run := func(spec *policy.Spec) *core.Report {
		t.Helper()
		cfg := DefaultConfig()
		cfg.InitialTables = 60
		f := New(cfg, sim.NewClock())
		ss, err := f.ServiceFromSpec(spec, DefaultModel(512*storage.MB), SpecRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 3; d++ {
			f.AdvanceDay()
		}
		rep, err := ss.Svc.RunOnce()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	unified := policy.DefaultSpec()
	unified.Execution = nil
	noMeta := unified.Clone()
	noMeta.Traits = []policy.Component{policy.C("file_count_reduction"), policy.C("compute_cost_gbhr")}
	noMeta.Objectives = []policy.ObjectiveSpec{
		{Trait: policy.C("file_count_reduction"), Weight: 0.7},
		{Trait: policy.C("compute_cost_gbhr"), Weight: 0.3},
	}
	for _, tc := range []struct {
		spec     *policy.Spec
		withMeta bool
	}{{unified, true}, {noMeta, false}} {
		rep := run(tc.spec)
		var data, maint int
		for _, cr := range rep.Results {
			c := cr.Candidate
			if cr.EstimatedGBHr != c.Trait(core.SlotComputeCost) || cr.EstimatedGBHr <= 0 {
				t.Fatalf("withMeta=%v: %s estimated %v GBHr", tc.withMeta, c.ID(), cr.EstimatedGBHr)
			}
			want := float64(c.Stats.SmallFiles)
			if c.Action != core.ActionDataCompaction {
				maint++
				if want = 0; tc.withMeta {
					want = float64(c.Stats.MetadataReducible)
				}
				if c.Stats.MetadataReducible <= 0 {
					t.Fatalf("%s passed min-metadata-reduction with nothing reducible", c.ID())
				}
			} else {
				data++
			}
			if cr.EstimatedReduction != want {
				t.Fatalf("withMeta=%v: %s estimated reduction %v, want %v", tc.withMeta, c.ID(), cr.EstimatedReduction, want)
			}
		}
		if data == 0 || maint == 0 {
			t.Fatalf("withMeta=%v: %d data and %d maintenance results; the check would be vacuous", tc.withMeta, data, maint)
		}
		header := strings.SplitN(rep.Decision.Explain(5), "\n", 4)[2]
		for _, col := range []string{"compute_cost_gbhr", "file_count_reduction"} {
			if !strings.Contains(header, col) {
				t.Fatalf("withMeta=%v: explain header lacks %s: %q", tc.withMeta, col, header)
			}
		}
		if strings.Contains(header, "metadata_reduction") != tc.withMeta {
			t.Fatalf("withMeta=%v: explain header %q", tc.withMeta, header)
		}
	}
}
