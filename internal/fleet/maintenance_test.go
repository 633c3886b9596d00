package fleet

import (
	"testing"

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
