package catalog_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func newEnv() (*storage.NameNode, *sim.Clock) {
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.Config{}, clock, sim.NewRNG(1))
	return fs, clock
}

// buildLake populates cp with two databases, one table with stored
// policies, and a small-file-heavy workload so a decide pass has real
// candidates.
func buildLake(t *testing.T, cp *catalog.ControlPlane, clock *sim.Clock) {
	t.Helper()
	if _, err := cp.CreateDatabase("sales", "tenant-a", 5000); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateDatabase("logs", "tenant-b", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTable("sales", lst.TableConfig{
		Name: "orders",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTable("sales", lst.TableConfig{Name: "refunds"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetPolicies("sales", "refunds", catalog.TablePolicies{RetainSnapshots: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTable("logs", lst.TableConfig{
		Name: "clicks",
		Spec: lst.PartitionSpec{Column: "day", Transform: lst.TransformDay},
	}); err != nil {
		t.Fatal(err)
	}
	parts := []string{"2024-03-01", "2024-03-02"}
	for i := 0; i < 12; i++ {
		clock.Advance(30 * time.Minute)
		for _, full := range []string{"sales.orders", "logs.clicks"} {
			tbl := mustTable(t, cp, full)
			if _, err := tbl.AppendFiles([]lst.FileSpec{
				{Partition: parts[i%2], SizeBytes: int64(3+i%4) * storage.MB, RowCount: 1000},
				{Partition: parts[i%2], SizeBytes: 5 * storage.MB, RowCount: 1500},
			}); err != nil {
				t.Fatal(err)
			}
		}
		tbl := mustTable(t, cp, "sales.refunds")
		if _, err := tbl.AppendFiles([]lst.FileSpec{
			{SizeBytes: 2 * storage.MB, RowCount: 200},
		}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if _, err := tbl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func mustTable(t *testing.T, cp *catalog.ControlPlane, full string) *lst.Table {
	t.Helper()
	for _, tbl := range cp.AllTables() {
		if tbl.FullName() == full {
			return tbl
		}
	}
	t.Fatalf("table %s not found", full)
	return nil
}

// lakeStates snapshots every table's full state keyed by name.
func lakeStates(cp *catalog.ControlPlane) map[string]*lst.TableState {
	out := make(map[string]*lst.TableState)
	for _, tbl := range cp.AllTables() {
		out[tbl.FullName()] = tbl.State()
	}
	return out
}

// decide runs a decide-only pipeline over the catalog and returns the
// ranked candidate IDs with scores — the decision surface restart must
// preserve.
func decide(t *testing.T, cp *catalog.ControlPlane, clock *sim.Clock) []string {
	t.Helper()
	spec := &policy.Spec{
		Name:       "persist-parity",
		Generators: []policy.Component{policy.C("hybrid-scope")},
		Traits:     []policy.Component{policy.C("file_count_reduction"), policy.C("compute_cost_gbhr")},
		Objectives: []policy.ObjectiveSpec{
			{Trait: policy.C("file_count_reduction"), Weight: 0.7},
			{Trait: policy.C("compute_cost_gbhr"), Weight: 0.3},
		},
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
	svc, err := core.NewService(comp.Core)
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Decide()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(d.Ranked))
	for _, c := range d.Ranked {
		out = append(out, c.ID())
	}
	return out
}

// TestPersistCatalogRoundTrip builds a logged lake, restores it in a
// fresh process image, and requires identical catalog metadata, table
// states, and decide output.
func TestPersistCatalogRoundTrip(t *testing.T) {
	store, err := lstlog.Open(lstlog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp, err := catalog.Restore(store, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	buildLake(t, cp, clock)
	wantStates := lakeStates(cp)
	wantDecision := decide(t, cp, clock)

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	cp2, err := catalog.Restore(store, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if got := lakeStates(cp2); !reflect.DeepEqual(wantStates, got) {
		t.Fatalf("restored table states differ\nwant: %+v\ngot:  %+v", wantStates, got)
	}
	if got, err := cp2.EffectivePolicies("sales", "refunds"); err != nil || got.RetainSnapshots != 3 {
		t.Fatalf("table policies lost: %+v (%v)", got, err)
	}
	if got := cp2.QuotaUtilization("sales"); got == 0 {
		t.Fatal("sales quota not restored")
	}
	if got := decide(t, cp2, clock2); !reflect.DeepEqual(wantDecision, got) {
		t.Fatalf("restored lake decides differently\nwant: %v\ngot:  %v", wantDecision, got)
	}

	// The restored catalog keeps logging: further commits then a second
	// restore still round-trip.
	clock2.Advance(time.Hour)
	if _, err := mustTable(t, cp2, "sales.orders").AppendFiles([]lst.FileSpec{
		{Partition: "2024-03-03", SizeBytes: 9 * storage.MB, RowCount: 900},
	}); err != nil {
		t.Fatal(err)
	}
	fs3, clock3 := newEnv()
	clock3.Set(clock2.Now())
	cp3, err := catalog.Restore(store, fs3, clock3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lakeStates(cp2), lakeStates(cp3)) {
		t.Fatal("second restore diverged from live catalog")
	}
}

// TestPersistCatalogPointerCrash simulates a crash in CreateTable's
// durability window: the table's log directory and create action exist
// on disk, but the process died before the manifest named the table.
// Restore must ignore the orphan, and re-creating the table afterwards
// must start clean.
func TestPersistCatalogPointerCrash(t *testing.T) {
	store, err := lstlog.Open(lstlog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp, err := catalog.Restore(store, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	buildLake(t, cp, clock)

	// The crash: a table's create action lands in its log, but the
	// manifest write never happens (built outside the catalog, exactly
	// what the kill window leaves behind).
	orphan, err := lst.NewTable(lst.TableConfig{Database: "sales", Name: "orphan"}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	olog, err := store.CreateTableLog("sales", "orphan")
	if err != nil {
		t.Fatal(err)
	}
	if err := olog.Append(orphan.CreateAction()); err != nil {
		t.Fatal(err)
	}

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	cp2, err := catalog.Restore(store, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp2.Table("sales", "orphan"); !errors.Is(err, catalog.ErrTableNotFound) {
		t.Fatalf("orphan table resurrected: %v", err)
	}
	if cp2.TableCount() != 3 {
		t.Fatalf("table count = %d, want 3", cp2.TableCount())
	}

	// Re-creating the orphaned name starts a fresh table: the debris log
	// is cleared, and the new table round-trips through a restore.
	if _, err := cp2.CreateTable("sales", lst.TableConfig{Name: "orphan"}); err != nil {
		t.Fatal(err)
	}
	if _, err := mustTable(t, cp2, "sales.orphan").AppendFiles([]lst.FileSpec{
		{SizeBytes: 6 * storage.MB, RowCount: 600},
	}); err != nil {
		t.Fatal(err)
	}
	fs3, clock3 := newEnv()
	clock3.Set(clock2.Now())
	cp3, err := catalog.Restore(store, fs3, clock3)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTable(t, cp2, "sales.orphan").State()
	got := mustTable(t, cp3, "sales.orphan").State()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("re-created table did not round-trip\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestPersistCreateTableUndoesFailedWrite blocks each durable write of
// CreateTable in turn — the table's log (a plain file where the
// database directory goes) and the manifest (a directory where it goes)
// — and requires the failed create to leave no table and no storage
// objects behind, so the same create succeeds once the path is clear.
func TestPersistCreateTableUndoesFailedWrite(t *testing.T) {
	for _, tc := range []struct {
		write, path string
		asDir       bool
	}{
		{"log", "db", false},
		{"manifest", "_catalog.json", true},
	} {
		t.Run(tc.write, func(t *testing.T) {
			root := t.TempDir()
			store, err := lstlog.Open(lstlog.Config{Root: root})
			if err != nil {
				t.Fatal(err)
			}
			fs, clock := newEnv()
			cp, err := catalog.Restore(store, fs, clock)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.CreateDatabase("db", "tenant", 100); err != nil {
				t.Fatal(err)
			}
			block := filepath.Join(root, tc.path)
			saved, _ := os.ReadFile(block)
			if err := os.RemoveAll(block); err != nil {
				t.Fatal(err)
			}
			if tc.asDir {
				err = os.MkdirAll(filepath.Join(block, "blocker"), 0o755)
			} else {
				err = os.WriteFile(block, []byte("not a directory"), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}

			if _, err := cp.CreateTable("db", lst.TableConfig{Name: "x"}); err == nil {
				t.Fatal("CreateTable succeeded with its durable write blocked")
			}
			if n := cp.TableCount(); n != 0 {
				t.Fatalf("failed create left %d tables", n)
			}
			if objs := fs.List("/db/x/"); len(objs) > 0 {
				t.Fatalf("failed create left %d storage objects: %v", len(objs), objs)
			}

			if err := os.RemoveAll(block); err != nil {
				t.Fatal(err)
			}
			if saved != nil {
				if err := os.WriteFile(block, saved, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tbl, err := cp.CreateTable("db", lst.TableConfig{Name: "x"})
			if err != nil {
				t.Fatalf("create after clearing the path: %v", err)
			}
			if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 10}}); err != nil {
				t.Fatal(err)
			}
			fs2, clock2 := newEnv()
			cp2, err := catalog.Restore(store, fs2, clock2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lakeStates(cp), lakeStates(cp2)) {
				t.Fatal("table created after a failed create did not round-trip")
			}
		})
	}
}

// TestPersistCatalogDropTable drops a logged table and requires the
// durable state to forget it.
func TestPersistCatalogDropTable(t *testing.T) {
	store, err := lstlog.Open(lstlog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp, err := catalog.Restore(store, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	buildLake(t, cp, clock)
	if err := cp.DropTable("sales", "refunds"); err != nil {
		t.Fatal(err)
	}

	fs2, clock2 := newEnv()
	clock2.Set(clock.Now())
	cp2, err := catalog.Restore(store, fs2, clock2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp2.Table("sales", "refunds"); !errors.Is(err, catalog.ErrTableNotFound) {
		t.Fatalf("dropped table survived restore: %v", err)
	}
	if !reflect.DeepEqual(lakeStates(cp), lakeStates(cp2)) {
		t.Fatal("surviving tables did not round-trip after drop")
	}
}

// TestPersistDropTableCrashStates rebuilds the two states a crash
// between DropTable's two writes can leave, and restores each. Manifest
// first, DropTable's order, leaves an orphan log directory: the lake
// restores without the table, and creating the table again clears the
// orphan. Log first leaves a manifest naming a table with no log, and the
// whole restore fails. A DropTable whose manifest write fails keeps the
// table's log, so the manifest that still names it stays restorable.
func TestPersistDropTableCrashStates(t *testing.T) {
	root := t.TempDir()
	store := logLake(t, root, "sales", "orders", "refunds")
	manifest := filepath.Join(root, "_catalog.json")
	tableDir := store.TableDir("sales", "refunds")
	restore := func() (*catalog.ControlPlane, error) {
		fs, clock := newEnv()
		return catalog.Restore(store, fs, clock)
	}
	pre := treeFiles(t, root)
	cp, err := restore()
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.DropTable("sales", "refunds"); err != nil {
		t.Fatal(err)
	}

	// Manifest written, log not yet removed.
	for path, data := range pre {
		if strings.HasPrefix(path, tableDir+string(filepath.Separator)) {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cp, err = restore()
	if err != nil {
		t.Fatalf("manifest-first crash state does not restore: %v", err)
	}
	if _, err := cp.Table("sales", "refunds"); !errors.Is(err, catalog.ErrTableNotFound) {
		t.Fatalf("dropped table survived the manifest-first crash: %v", err)
	}
	mustTable(t, cp, "sales.orders")
	if _, err := cp.CreateTable("sales", lst.TableConfig{Name: "refunds"}); err != nil {
		t.Fatalf("recreating over the orphan: %v", err)
	}
	if cp, err = restore(); err != nil {
		t.Fatal(err)
	}
	if n := mustTable(t, cp, "sales.refunds").FileCount(); n != 0 {
		t.Fatalf("recreated table restored with %d files of the orphan's history", n)
	}

	// Log removed, manifest not yet written.
	if err := os.RemoveAll(tableDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, []byte(pre[manifest]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := restore(); err == nil || !strings.Contains(err.Error(), "refunds") {
		t.Fatalf("log-first crash state restored: %v", err)
	}

	// A manifest write that fails (a directory in the manifest's place)
	// must leave the log in place.
	root = t.TempDir()
	store = logLake(t, root, "sales", "orders", "refunds")
	if cp, err = restore(); err != nil {
		t.Fatal(err)
	}
	manifest = filepath.Join(root, "_catalog.json")
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(manifest, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cp.DropTable("sales", "refunds"); err == nil {
		t.Fatal("DropTable reported success without writing the manifest")
	}
	if _, err := os.Stat(store.TableDir("sales", "refunds")); err != nil {
		t.Fatalf("DropTable removed the log of a table the manifest still names: %v", err)
	}
}

// logLake builds a logged lake at root holding one database with the
// named tables, each with one committed file, and returns its store.
func logLake(tb testing.TB, root, db string, tables ...string) *lstlog.Store {
	tb.Helper()
	store, err := lstlog.Open(lstlog.Config{Root: root})
	if err != nil {
		tb.Fatal(err)
	}
	fs, clock := newEnv()
	cp, err := catalog.Restore(store, fs, clock)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := cp.CreateDatabase(db, "tenant", 0); err != nil {
		tb.Fatal(err)
	}
	for _, name := range tables {
		tbl, err := cp.CreateTable(db, lst.TableConfig{Name: name})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 10}}); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

// treeFiles reads every file under dir, keyed by path.
func treeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRejectsNameOutsideRoot puts a real lake beside the store
// root and a manifest whose names lead into it: Restore must fail naming
// the entry and leave the neighbouring lake as it was.
func TestRestoreRejectsNameOutsideRoot(t *testing.T) {
	base := t.TempDir()
	logLake(t, filepath.Join(base, "other"), "db", "victim")
	before := treeFiles(t, filepath.Join(base, "other"))
	store, err := lstlog.Open(lstlog.Config{Root: filepath.Join(base, "root")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ manifest, name string }{
		{`{"version":1,"databases":[{"name":"../other/db","tables":[{"name":"victim"}]}]}`, "../other/db"},
		{`{"version":1,"databases":[{"name":"db","tables":[{"name":"../../other/db/victim"}]}]}`, "../../other/db/victim"},
	} {
		if err := store.WriteSubFile("_catalog.json", []byte(tc.manifest)); err != nil {
			t.Fatal(err)
		}
		fs, clock := newEnv()
		cp, err := catalog.Restore(store, fs, clock)
		if err == nil {
			t.Fatalf("Restore accepted %s and restored %d tables", tc.name, cp.TableCount())
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("error %q does not name %s", err, tc.name)
		}
	}
	if after := treeFiles(t, filepath.Join(base, "other")); !reflect.DeepEqual(before, after) {
		t.Fatal("Restore changed the lake outside its root")
	}
}

// TestRestoreRejectsBadEntries pins the other manifests Restore refuses:
// a database or table named twice, and an entry whose log replays a
// different table.
func TestRestoreRejectsBadEntries(t *testing.T) {
	root := t.TempDir()
	store := logLake(t, root, "sales", "orders")
	// A copy of orders' log under another name replays sales.orders.
	if err := os.CopyFS(filepath.Join(root, "sales", "alias"), os.DirFS(filepath.Join(root, "sales", "orders"))); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ manifest, want string }{
		{`{"databases":[{"name":"sales"},{"name":"sales"}]}`, `database "sales" twice`},
		{`{"databases":[{"name":"sales","tables":[{"name":"orders"},{"name":"orders"}]}]}`, "restoring sales.orders: storage: object already exists"},
		{`{"databases":[{"name":"sales","tables":[{"name":"alias"}]}]}`, "restoring sales.alias: its log replays table sales.orders"},
	} {
		if err := store.WriteSubFile("_catalog.json", []byte(tc.manifest)); err != nil {
			t.Fatal(err)
		}
		fs, clock := newEnv()
		if _, err := catalog.Restore(store, fs, clock); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Restore(%s) = %v, want an error containing %q", tc.manifest, err, tc.want)
		}
	}
}

// TestRestoreLegacyManifest restores a store whose manifest carries a
// database "policies" object and table "Intermediate" flags, as older
// catalogs wrote it: both are ignored, every table comes back with its
// other stored policies, and the next manifest write drops them.
func TestRestoreLegacyManifest(t *testing.T) {
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS(filepath.Join("testdata", "legacy-store"))); err != nil {
		t.Fatal(err)
	}
	store, err := lstlog.Open(lstlog.Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	fs, clock := newEnv()
	cp, err := catalog.Restore(store, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]catalog.TablePolicies{
		"logs.clicks":   {},
		"sales.orders":  {},
		"sales.refunds": {RetainSnapshots: 3, CheckpointEveryVersions: 40, TriggerEveryCommits: 5},
	}
	if got := cp.TableCount(); got != len(want) {
		t.Fatalf("restored %d tables, want %d", got, len(want))
	}
	for _, tbl := range cp.AllTables() {
		pol, err := cp.EffectivePolicies(tbl.Database(), tbl.Name())
		if err != nil || pol != want[tbl.FullName()] {
			t.Fatalf("%s policies = %+v (%v), want %+v", tbl.FullName(), pol, err, want[tbl.FullName()])
		}
		if v := tbl.State().Version; v != 2 {
			t.Fatalf("%s restored at version %d, want 2", tbl.FullName(), v)
		}
	}
	if got := cp.QuotaUtilization("sales"); got == 0 {
		t.Fatal("sales quota not restored")
	}

	if err := cp.SetPolicies("sales", "orders", catalog.TablePolicies{RetainSnapshots: 9}); err != nil {
		t.Fatal(err)
	}
	data, err := store.ReadSubFile("_catalog.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Databases []map[string]json.RawMessage `json:"databases"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, md := range m.Databases {
		if _, ok := md["policies"]; ok {
			t.Fatalf("rewritten manifest keeps database policies:\n%s", data)
		}
	}
	if strings.Contains(string(data), "Intermediate") {
		t.Fatalf("rewritten manifest keeps Intermediate:\n%s", data)
	}
}
