package catalog

import (
	"errors"
	"testing"

	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func newCP() (*ControlPlane, *sim.Clock) {
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	return New(fs, clock), clock
}

func TestCreateDatabaseAndTable(t *testing.T) {
	cp, _ := newCP()
	if _, err := cp.CreateDatabase("sales", "growth-team", 1000); err != nil {
		t.Fatal(err)
	}
	tbl, err := cp.CreateTable("sales", lst.TableConfig{Name: "orders"})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Database() != "sales" || tbl.Name() != "orders" {
		t.Fatalf("table identity = %s", tbl.FullName())
	}
	got, err := cp.Table("sales", "orders")
	if err != nil || got != tbl {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if cp.TableCount() != 1 {
		t.Fatalf("count = %d", cp.TableCount())
	}
}

func TestDuplicateDatabase(t *testing.T) {
	cp, _ := newCP()
	cp.CreateDatabase("db", "t", 0)
	if _, err := cp.CreateDatabase("db", "t", 0); !errors.Is(err, ErrDatabaseExists) {
		t.Fatalf("duplicate db: %v", err)
	}
}

func TestDuplicateTable(t *testing.T) {
	cp, _ := newCP()
	cp.CreateDatabase("db", "t", 0)
	cp.CreateTable("db", lst.TableConfig{Name: "x"})
	if _, err := cp.CreateTable("db", lst.TableConfig{Name: "x"}); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate table: %v", err)
	}
}

func TestMissingLookups(t *testing.T) {
	cp, _ := newCP()
	if _, err := cp.Table("nodb", "x"); !errors.Is(err, ErrDatabaseNotFound) {
		t.Fatalf("missing db: %v", err)
	}
	cp.CreateDatabase("db", "t", 0)
	if _, err := cp.Table("db", "x"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("missing table: %v", err)
	}
	if _, err := cp.CreateTable("nodb", lst.TableConfig{Name: "x"}); !errors.Is(err, ErrDatabaseNotFound) {
		t.Fatalf("create in missing db: %v", err)
	}
	if _, err := cp.Tables("nodb"); !errors.Is(err, ErrDatabaseNotFound) {
		t.Fatalf("tables of missing db: %v", err)
	}
	if err := cp.DropTable("db", "x"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("drop missing: %v", err)
	}
}

func TestAllTablesSortedDeterministic(t *testing.T) {
	cp, _ := newCP()
	cp.CreateDatabase("zeta", "t", 0)
	cp.CreateDatabase("alpha", "t", 0)
	cp.CreateTable("zeta", lst.TableConfig{Name: "b"})
	cp.CreateTable("zeta", lst.TableConfig{Name: "a"})
	cp.CreateTable("alpha", lst.TableConfig{Name: "z"})
	all := cp.AllTables()
	want := []string{"alpha.z", "zeta.a", "zeta.b"}
	if len(all) != len(want) {
		t.Fatalf("len = %d", len(all))
	}
	for i, w := range want {
		if all[i].FullName() != w {
			t.Fatalf("order = %v at %d, want %v", all[i].FullName(), i, w)
		}
	}
}

func TestDropTableCleansStorage(t *testing.T) {
	cp, _ := newCP()
	cp.CreateDatabase("db", "t", 0)
	tbl, _ := cp.CreateTable("db", lst.TableConfig{Name: "x"})
	tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 1}})
	if cp.FS().ObjectCount() == 0 {
		t.Fatal("no objects before drop")
	}
	if err := cp.DropTable("db", "x"); err != nil {
		t.Fatal(err)
	}
	if got := cp.FS().ObjectCount(); got != 0 {
		t.Fatalf("objects after drop = %d", got)
	}
	if cp.TableCount() != 0 {
		t.Fatal("table still registered")
	}
}

func TestQuotaUtilization(t *testing.T) {
	cp, _ := newCP()
	cp.CreateDatabase("db", "t", 10)
	tbl, _ := cp.CreateTable("db", lst.TableConfig{Name: "x"}) // 1 metadata object
	tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 1}})
	// objects: v0 metadata, data file, manifest, v1 metadata = 4
	if got := cp.QuotaUtilization("db"); got != 0.4 {
		t.Fatalf("utilization = %v", got)
	}
	if got := cp.QuotaUtilization("unquotad"); got != 0 {
		t.Fatalf("missing quota utilization = %v", got)
	}
}

func TestPolicies(t *testing.T) {
	cp, _ := newCP()
	cp.CreateDatabase("db", "t", 0)
	cp.CreateTable("db", lst.TableConfig{Name: "x"})
	if err := cp.SetPolicies("db", "x", TablePolicies{RetainSnapshots: 3, TriggerEveryCommits: 2}); err != nil {
		t.Fatal(err)
	}
	pol, err := cp.EffectivePolicies("db", "x")
	if err != nil || pol.RetainSnapshots != 3 || pol.TriggerEveryCommits != 2 {
		t.Fatalf("policies = %+v, %v", pol, err)
	}
	if err := cp.SetPolicies("db", "x", TablePolicies{RetainSnapshots: 1}); err != nil {
		t.Fatal(err)
	}
	pol, _ = cp.EffectivePolicies("db", "x")
	if pol.RetainSnapshots != 1 || pol.TriggerEveryCommits != 0 {
		t.Fatalf("updated policies = %+v", pol)
	}
	if _, err := cp.EffectivePolicies("db", "missing"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("missing policies: %v", err)
	}
	if err := cp.SetPolicies("nodb", "x", TablePolicies{}); !errors.Is(err, ErrDatabaseNotFound) {
		t.Fatalf("set on missing db: %v", err)
	}
}

func TestDatabasesSorted(t *testing.T) {
	cp, _ := newCP()
	cp.CreateDatabase("b", "t", 0)
	cp.CreateDatabase("a", "t", 0)
	dbs := cp.Databases()
	if len(dbs) != 2 || dbs[0] != "a" || dbs[1] != "b" {
		t.Fatalf("databases = %v", dbs)
	}
}

func TestDatabasePolicyLayering(t *testing.T) {
	cp, _ := newCP()
	if _, err := cp.CreateDatabase("sales", "t", 0); err != nil {
		t.Fatal(err)
	}
	// Plain CreateTable stores no policies; a second table sets its own.
	if _, err := cp.CreateTable("sales", lst.TableConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTable("sales", lst.TableConfig{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetPolicies("sales", "b", TablePolicies{RetainSnapshots: 3, TriggerEveryCommits: 7}); err != nil {
		t.Fatal(err)
	}

	// Table "a": every field unset.
	eff, err := cp.EffectivePolicies("sales", "a")
	if err != nil {
		t.Fatal(err)
	}
	if eff != (TablePolicies{}) {
		t.Fatalf("effective a = %+v", eff)
	}
	// Table "b": its own set fields, the rest unset.
	eff, err = cp.EffectivePolicies("sales", "b")
	if err != nil {
		t.Fatal(err)
	}
	if eff != (TablePolicies{RetainSnapshots: 3, TriggerEveryCommits: 7}) {
		t.Fatalf("effective b = %+v", eff)
	}

	if _, err := cp.EffectivePolicies("sales", "nope"); !errors.Is(err, ErrTableNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestCreateRejectsPathNames pins that a name which is not one path
// element creates nothing: names become directories under the store root.
func TestCreateRejectsPathNames(t *testing.T) {
	bad := []string{"", ".", "..", "../x", "a/b", `a\b`, "/abs"}
	cp, _ := newCP()
	for _, name := range bad {
		if _, err := cp.CreateDatabase(name, "t", 0); err == nil {
			t.Errorf("CreateDatabase(%q) succeeded", name)
		}
	}
	if _, err := cp.CreateDatabase("db", "t", 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range bad {
		if _, err := cp.CreateTable("db", lst.TableConfig{Name: name}); err == nil {
			t.Errorf("CreateTable(db, %q) succeeded", name)
		}
	}
	if got := cp.Databases(); len(got) != 1 || cp.TableCount() != 0 {
		t.Fatalf("databases = %v, tables = %d", got, cp.TableCount())
	}
}
