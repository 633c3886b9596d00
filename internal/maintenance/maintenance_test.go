package maintenance_test

import (
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/maintenance"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// lake builds a control plane with one database and n tables, each aged
// with commits single-file appends.
func lake(t *testing.T, n, commits int) (*catalog.ControlPlane, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("db1", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tbl, err := cp.CreateTable("db1", lst.TableConfig{
			Name:   "t" + string(rune('a'+i)),
			Schema: lst.Schema{Fields: []lst.Field{{Name: "k", Type: lst.TypeInt64}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < commits; c++ {
			clock.Advance(time.Minute)
			if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cp, clock
}

// static applies one policy to every table.
type static maintenance.Policy

func (p static) PolicyFor(_, _ string) maintenance.Policy { return maintenance.Policy(p) }

func TestGeneratorEmitsPerPolicyTriggers(t *testing.T) {
	cp, _ := lake(t, 1, 30)
	tables := core.CatalogConnector{CP: cp}.Tables()

	// All three triggers fire: 30 snapshots > 5 retained, 30 versions
	// >= 10, 30 manifests vs 1 consolidated.
	gen := maintenance.Generator{Policies: static(maintenance.Policy{
		RetainSnapshots: 5, CheckpointEveryVersions: 10, MinManifestSurplus: 8,
	})}
	cands := gen.Candidates(tables)
	byAction := map[core.ActionType]int{}
	for _, c := range cands {
		byAction[c.Action]++
	}
	if byAction[core.ActionSnapshotExpiry] != 1 ||
		byAction[core.ActionMetadataCheckpoint] != 1 ||
		byAction[core.ActionManifestRewrite] != 1 {
		t.Fatalf("actions = %v", byAction)
	}

	// A lax policy silences every trigger.
	lax := maintenance.Generator{Policies: static(maintenance.Policy{
		RetainSnapshots: 100, CheckpointEveryVersions: 100, MinManifestSurplus: 100,
	})}
	if got := lax.Candidates(tables); len(got) != 0 {
		t.Fatalf("lax policy generated %d candidates", len(got))
	}

	// Zero values disable the trigger families outright.
	off := maintenance.Generator{Policies: static(maintenance.Policy{})}
	if got := off.Candidates(tables); len(got) != 0 {
		t.Fatalf("disabled policy generated %d candidates", len(got))
	}
}

func TestObserverFillsMetadataStats(t *testing.T) {
	cp, _ := lake(t, 1, 20)
	tbl := core.CatalogConnector{CP: cp}.Tables()[0]
	pol := static(maintenance.Policy{RetainSnapshots: 4, CheckpointEveryVersions: 10})
	obs := maintenance.Observer{Policies: pol}

	ckpt := &core.Candidate{Table: tbl, Action: core.ActionMetadataCheckpoint}
	s, err := obs.Observe(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// 41 objects (21 metadata.json + 20 manifests) collapse to 2.
	if s.MetadataReducible != 39 {
		t.Fatalf("checkpoint stats = %+v", s)
	}
	if s.MetadataBytes <= 0 {
		t.Fatalf("checkpoint stats = %+v", s)
	}

	exp := &core.Candidate{Table: tbl, Action: core.ActionSnapshotExpiry}
	s, err = obs.Observe(exp)
	if err != nil {
		t.Fatal(err)
	}
	lt := tbl.(*lst.Table)
	if s.MetadataReducible != lt.ExpireEstimate(4) {
		t.Fatalf("expiry reducible = %d, table estimate = %d", s.MetadataReducible, lt.ExpireEstimate(4))
	}
	// Expiry processes only the dropped objects, so its priced byte
	// volume must be well below the checkpoint's full-log volume.
	ckptStats, _ := obs.Observe(ckpt)
	if s.MetadataBytes >= ckptStats.MetadataBytes {
		t.Fatalf("expiry bytes %d >= checkpoint bytes %d", s.MetadataBytes, ckptStats.MetadataBytes)
	}
}

func TestRunnerDispatchesActions(t *testing.T) {
	cp, _ := lake(t, 1, 20)
	tbl := core.CatalogConnector{CP: cp}.Tables()[0]
	r := maintenance.Runner{
		Policies:            static(maintenance.Policy{RetainSnapshots: 5}),
		ExecutorMemoryGB:    64,
		RewriteBytesPerHour: float64(3 * storage.TB),
	}

	res := r.Run(&core.Candidate{Table: tbl, Action: core.ActionSnapshotExpiry})
	if res.Err != nil || res.Skipped {
		t.Fatalf("expiry result = %+v", res)
	}
	if res.Reduction() <= 0 {
		t.Fatalf("expiry reduced %d", res.Reduction())
	}

	res = r.Run(&core.Candidate{Table: tbl, Action: core.ActionMetadataCheckpoint})
	if res.Err != nil || res.Skipped || res.Reduction() <= 0 {
		t.Fatalf("checkpoint result = %+v", res)
	}
	if res.GBHr <= 0 {
		t.Fatal("checkpoint charged no GBHr")
	}
	if tbl.(*lst.Table).MetadataObjectCount() != 2 {
		t.Fatalf("table log not collapsed: %d objects", tbl.(*lst.Table).MetadataObjectCount())
	}

	// Re-running the checkpoint is a skip, not an error.
	res = r.Run(&core.Candidate{Table: tbl, Action: core.ActionMetadataCheckpoint})
	if !res.Skipped {
		t.Fatalf("second checkpoint = %+v", res)
	}

	// A data candidate without a data runner is a hard error.
	res = r.Run(&core.Candidate{Table: tbl})
	if res.Err == nil {
		t.Fatal("data candidate without data runner succeeded")
	}
}

// catalogConfig compiles the unified maintenance spec against a control
// plane: a metadata-only pipeline (the spec names no data generator)
// whose per-table policies layer the catalog's stored policies over the
// spec's maintenance section.
func catalogConfig(t *testing.T, cp *catalog.ControlPlane, clock *sim.Clock, selector policy.Component) core.Config {
	t.Helper()
	spec := policy.DefaultSpec()
	spec.Generators = nil
	spec.Execution = nil
	spec.Selector = &selector
	spec.Maintenance = &policy.MaintenanceSpec{
		RetainSnapshots: 5, CheckpointEveryVersions: 10, MinManifestSurplus: 8,
	}
	env := policy.StubEnv()
	env.Now = clock.Now
	comp, err := policy.Compile(spec, env, policy.Bindings{
		Connector: core.CatalogConnector{CP: cp},
		Observer: core.StatsObserver{
			TargetFileSize: env.TargetFileSize,
			Quota:          cp.QuotaUtilization,
		},
		Catalog: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return comp.Core
}

func TestCatalogServiceUnifiedCycle(t *testing.T) {
	cp, clock := lake(t, 3, 25)
	svc, err := core.NewService(catalogConfig(t, cp, clock, policy.Component{
		Name: "budget", Params: map[string]any{"budget_gbhr": float64(1024)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Override one table's catalog policy: retention must follow it.
	if err := cp.SetPolicies("db1", "ta", catalog.TablePolicies{RetainSnapshots: 2, CheckpointEveryVersions: 10}); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	counts := rep.ActionCounts()
	if counts[core.ActionMetadataCheckpoint] == 0 {
		t.Fatalf("action counts = %v", counts)
	}
	if rep.MetadataReduced <= 0 {
		t.Fatalf("metadata reduced = %d", rep.MetadataReduced)
	}
	ta, err := cp.Table("db1", "ta")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ta.Snapshots()); got != 2 {
		t.Fatalf("ta retained %d snapshots, want 2 (catalog policy)", got)
	}

	// Steady state: a second cycle right after finds nothing metadata-
	// worthy (no commits in between).
	rep2, err := svc.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.MetadataReduced != 0 {
		t.Fatalf("second cycle reduced %d metadata objects", rep2.MetadataReduced)
	}
}

func TestBudgetSharedAcrossActionFamilies(t *testing.T) {
	cp, clock := lake(t, 2, 30)
	// A budget of 0 GBHr admits only zero-cost actions; with the cost
	// model on, every maintenance action costs > 0, so nothing runs —
	// metadata actions obey the same selector as data compaction. Spec
	// budgets must be positive, so the zero budget replaces the compiled
	// selector.
	cfg := catalogConfig(t, cp, clock, policy.Component{Name: "all"})
	cfg.Selector = core.BudgetSelector{BudgetGBHr: 0}
	svc, err := core.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ranked) == 0 {
		t.Fatal("no candidates ranked")
	}
	if len(d.Selected) != 0 {
		t.Fatalf("zero budget selected %d candidates", len(d.Selected))
	}
}
