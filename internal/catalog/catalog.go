// Package catalog implements a control plane for the simulated data lake
// in the mold of LinkedIn's OpenHouse: a declarative catalog of databases
// (tenant namespaces with HDFS object quotas) and log-structured tables,
// each with its stored per-table maintenance policies.
//
// AutoComp interfaces with the lake exclusively through this catalog,
// matching the paper's deployment where compaction is an OpenHouse data
// service (§2, §5, Figure 5).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Errors returned by catalog operations.
var (
	ErrDatabaseExists   = errors.New("catalog: database already exists")
	ErrDatabaseNotFound = errors.New("catalog: database not found")
	ErrTableExists      = errors.New("catalog: table already exists")
	ErrTableNotFound    = errors.New("catalog: table not found")
)

// TablePolicies is the declarative per-table maintenance state the control
// plane stores. A zero field is unset: policy.Source layers only the
// positive fields over the policy spec's values.
type TablePolicies struct {
	// RetainSnapshots is how many snapshots the snapshot-expiry action
	// keeps for the table.
	RetainSnapshots int
	// CheckpointEveryVersions is how many commits may accumulate before
	// a metadata checkpoint is due.
	CheckpointEveryVersions int64

	// TriggerEveryCommits is the incremental observation plane's
	// commit-count trigger for this table: how many commits accumulate
	// before the table enters the dirty set for re-observation. 0 falls
	// back to the feed's default (every commit preserves full-scan
	// decision parity; higher values observe lazily).
	TriggerEveryCommits int64
	// TriggerBytesWritten, when positive, also fires the trigger once
	// this many bytes accumulate since the last observation.
	TriggerBytesWritten int64
}

// Database is a tenant namespace holding tables under one storage quota.
type Database struct {
	Name   string
	Tenant string
}

// entry pairs a table with its policies.
type entry struct {
	table    *lst.Table
	policies TablePolicies
}

// ControlPlane is the catalog: databases, their tables, and each table's
// stored policies.
type ControlPlane struct {
	mu    sync.Mutex
	fs    *storage.NameNode
	clock *sim.Clock
	dbs   map[string]*Database
	// tables is keyed by database name, then table name.
	tables map[string]map[string]*entry
	// commitHook, when set, is installed on every table (existing and
	// future) so the lake publishes one changefeed.
	commitHook lst.CommitHook
	// dropHook, when set, is notified after DropTable removes a table,
	// so changefeed consumers forget it (dirty state, cached stats,
	// retained candidates).
	dropHook func(db, name string)
	// log, set when Restore opened the catalog from a store, is the
	// durable commit-log store: table actions stream to per-table
	// _delta_log directories and catalog mutations rewrite the manifest.
	log *lstlog.Store
}

// New returns a control plane over the given storage, driven by clock.
func New(fs *storage.NameNode, clock *sim.Clock) *ControlPlane {
	return &ControlPlane{
		fs:     fs,
		clock:  clock,
		dbs:    make(map[string]*Database),
		tables: make(map[string]map[string]*entry),
	}
}

// FS returns the underlying storage layer.
func (cp *ControlPlane) FS() *storage.NameNode { return cp.fs }

// Clock returns the control plane's clock.
func (cp *ControlPlane) Clock() *sim.Clock { return cp.clock }

// CreateDatabase registers a database (tenant namespace). quotaObjects, if
// positive, installs an HDFS namespace quota on the database.
func (cp *ControlPlane) CreateDatabase(name, tenant string, quotaObjects int64) (*Database, error) {
	if err := checkName("database", name); err != nil {
		return nil, err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, ok := cp.dbs[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseExists, name)
	}
	db := &Database{Name: name, Tenant: tenant}
	cp.dbs[name] = db
	cp.tables[name] = make(map[string]*entry)
	if quotaObjects > 0 {
		cp.fs.SetQuota(name, quotaObjects)
	}
	if err := cp.persistLocked(); err != nil {
		return nil, err
	}
	return db, nil
}

// checkName rejects a database or table name that is not one path
// element: names become directories under the store root and prefixes of
// storage paths, so "", ".", ".." or a name holding a path separator
// would reach outside its own.
func checkName(kind, name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("catalog: invalid %s name %q", kind, name)
	}
	return nil
}

// Databases returns registered database names, sorted.
func (cp *ControlPlane) Databases() []string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make([]string, 0, len(cp.dbs))
	for name := range cp.dbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CreateTable creates a table in db with cfg (cfg.Database is overwritten
// with db) and no policies set: every field is zero, so the policy spec's
// defaults apply until SetPolicies stores some.
func (cp *ControlPlane) CreateTable(db string, cfg lst.TableConfig) (*lst.Table, error) {
	if err := checkName("table", cfg.Name); err != nil {
		return nil, err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	if _, ok := ts[cfg.Name]; ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrTableExists, db, cfg.Name)
	}
	cfg.Database = db
	t, err := lst.NewTable(cfg, cp.fs, cp.clock)
	if err != nil {
		return nil, err
	}
	if cp.commitHook != nil {
		t.SetCommitHook(cp.commitHook)
	}
	ts[cfg.Name] = &entry{table: t}
	if cp.log != nil {
		// Durability order matters: the table's log (create action) lands
		// before the manifest names the table. A crash in between leaves a
		// directory the manifest does not reference — Restore ignores it,
		// and the next create of the name clears it. A failed write undoes
		// the create, so the catalog never holds a table its store lacks.
		err := cp.attachTableLogLocked(db, cfg.Name, t)
		if err == nil {
			err = cp.saveManifestLocked()
		}
		if err != nil {
			delete(ts, cfg.Name)
			return nil, errors.Join(err, cp.deleteObjectsLocked(db, cfg.Name))
		}
	}
	return t, nil
}

// SetCommitHook installs h on every table in the lake — existing tables
// immediately, future tables at creation — so one changefeed observes
// all commits. The changefeed package's AttachCatalog wires a feed's
// Publish here.
func (cp *ControlPlane) SetCommitHook(h lst.CommitHook) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.commitHook = h
	for _, ts := range cp.tables {
		for _, e := range ts {
			e.table.SetCommitHook(h)
		}
	}
}

// Table looks up a table.
func (cp *ControlPlane) Table(db, name string) (*lst.Table, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	return e.table, nil
}

// EffectivePolicies returns the policies stored for a table. Only
// operator-set fields are non-zero; consumers apply their own defaults
// (the policy spec's maintenance and trigger sections) to the rest.
func (cp *ControlPlane) EffectivePolicies(db, name string) (TablePolicies, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return TablePolicies{}, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return TablePolicies{}, fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	return e.policies, nil
}

// SetPolicies replaces the policies for a table.
func (cp *ControlPlane) SetPolicies(db, name string, pol TablePolicies) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	e.policies = pol
	return cp.persistLocked()
}

// Tables returns the tables of one database sorted by name.
func (cp *ControlPlane) Tables(db string) ([]*lst.Table, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	out := make([]*lst.Table, 0, len(ts))
	for _, e := range ts {
		out = append(out, e.table)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// AllTables returns every table in the lake, sorted by database then name,
// giving the deterministic iteration order AutoComp's candidate generation
// relies on (NFR2).
func (cp *ControlPlane) AllTables() []*lst.Table {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var out []*lst.Table
	for _, ts := range cp.tables {
		for _, e := range ts {
			out = append(out, e.table)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// TableCount returns the number of onboarded tables.
func (cp *ControlPlane) TableCount() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	n := 0
	for _, ts := range cp.tables {
		n += len(ts)
	}
	return n
}

// DropTable unregisters a table and deletes all of its storage objects.
// Once the table is unregistered its commit hook is detached (a stale
// handle can no longer publish) and the drop hook, when set, is
// notified — even when a storage deletion fails, so the changefeed
// never keeps a phantom table the catalog no longer knows. A logged
// table leaves the manifest before its log directory is removed: a crash
// in between leaves an orphan directory, which Restore ignores and the
// next CreateTable of the name clears, never a manifest naming a table
// with no log. If the manifest cannot be written, the log stays.
func (cp *ControlPlane) DropTable(db, name string) error {
	dropped, err := cp.dropTable(db, name)
	if dropped == nil {
		return err
	}
	dropped.SetCommitHook(nil)
	dropped.SetActionSink(nil)
	cp.mu.Lock()
	if cp.log != nil {
		if pErr := cp.saveManifestLocked(); pErr != nil {
			if err == nil {
				err = pErr
			}
		} else if rmErr := cp.log.RemoveTable(db, name); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	hook := cp.dropHook
	cp.mu.Unlock()
	if hook != nil {
		hook(db, name)
	}
	return err
}

// dropTable is the locked body of DropTable. A non-nil table means the
// table was unregistered, even if deleting its storage objects failed
// (the error is returned alongside).
func (cp *ControlPlane) dropTable(db, name string) (*lst.Table, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	ts, ok := cp.tables[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrDatabaseNotFound, db)
	}
	e, ok := ts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrTableNotFound, db, name)
	}
	delete(ts, name)
	return e.table, cp.deleteObjectsLocked(db, name)
}

// deleteObjectsLocked deletes every storage object under the table's
// path, returning the first deletion error. Must hold cp.mu.
func (cp *ControlPlane) deleteObjectsLocked(db, name string) error {
	var firstErr error
	for _, obj := range cp.fs.List(fmt.Sprintf("/%s/%s/", db, name)) {
		if err := cp.fs.Delete(obj.Path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SetDropHook installs h to be notified after every DropTable. The
// changefeed package's AttachCatalog publishes Dropped events here.
func (cp *ControlPlane) SetDropHook(h func(db, name string)) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.dropHook = h
}

// QuotaUtilization returns Used/Total for a database's namespace quota, or
// 0 when no quota is installed. Feeds the paper's quota-adaptive MOOP
// weight w1 = 0.5·(1 + Used/Total) (§7).
func (cp *ControlPlane) QuotaUtilization(db string) float64 {
	q, ok := cp.fs.QuotaFor(db)
	if !ok {
		return 0
	}
	return q.Utilization()
}
