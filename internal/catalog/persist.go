package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"autocomp/internal/lst"
	"autocomp/internal/lstlog"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// manifestName is the control-plane manifest file under the store root.
// It is the catalog's durable pointer set: a table exists durably only
// once it appears here, so a crash between a table's first action file
// and the manifest write recovers to a lake without the table.
const manifestName = "_catalog.json"

// logManifest is the serialized control-plane state: databases, quotas,
// the tables whose _delta_log directories Restore replays, and their
// policies.
type logManifest struct {
	Version   int                `json:"version"`
	Databases []manifestDatabase `json:"databases"`
}

type manifestDatabase struct {
	Name         string          `json:"name"`
	Tenant       string          `json:"tenant,omitempty"`
	QuotaObjects int64           `json:"quota_objects,omitempty"`
	Tables       []manifestTable `json:"tables,omitempty"`
}

type manifestTable struct {
	Name     string         `json:"name"`
	Policies *TablePolicies `json:"policies,omitempty"`
}

// attachTableLogLocked starts the table's log at its create action and
// installs the action sink on the table.
func (cp *ControlPlane) attachTableLogLocked(db, name string, t *lst.Table) error {
	tlog, err := cp.log.CreateTableLog(db, name)
	if err != nil {
		return err
	}
	if err := tlog.Append(t.CreateAction()); err != nil {
		return err
	}
	t.SetActionSink(tlog.Sink())
	return nil
}

// saveManifestLocked writes the control-plane manifest. Caller holds
// cp.mu and has verified cp.log != nil.
func (cp *ControlPlane) saveManifestLocked() error {
	m := logManifest{Version: 1}
	dbNames := make([]string, 0, len(cp.dbs))
	for name := range cp.dbs {
		dbNames = append(dbNames, name)
	}
	sort.Strings(dbNames)
	for _, dbName := range dbNames {
		db := cp.dbs[dbName]
		md := manifestDatabase{Name: db.Name, Tenant: db.Tenant}
		if q, ok := cp.fs.QuotaFor(db.Name); ok {
			md.QuotaObjects = q.Max
		}
		tNames := make([]string, 0, len(cp.tables[dbName]))
		for name := range cp.tables[dbName] {
			tNames = append(tNames, name)
		}
		sort.Strings(tNames)
		for _, name := range tNames {
			mt := manifestTable{Name: name}
			if pol := cp.tables[dbName][name].policies; pol != (TablePolicies{}) {
				p := pol
				mt.Policies = &p
			}
			md.Tables = append(md.Tables, mt)
		}
		m.Databases = append(m.Databases, md)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return cp.log.WriteSubFile(manifestName, append(data, '\n'))
}

// persistLocked saves the manifest when a log is attached; callers that
// mutated catalog state (not table state — the per-table logs carry
// that) call this before unlocking.
func (cp *ControlPlane) persistLocked() error {
	if cp.log == nil {
		return nil
	}
	return cp.saveManifestLocked()
}

// Restore is the one way to open a durable control plane. It rebuilds
// the catalog a previous process wrote under the store root: the
// manifest's databases and quotas are recreated, then every manifest
// table is reopened by replaying its commit log into fs, with its stored
// policies. Table directories the manifest does not name are ignored —
// their create never became durable in the catalog. A manifest name that
// is not one path element, a database listed twice, or a log that
// replays a table other than its entry fails the restore (a table listed
// twice fails on its storage objects). A store with no manifest restores
// to an empty lake, whose first mutation writes the manifest. From then
// on table actions stream to the tables' logs and catalog changes
// rewrite the manifest. Commit hooks are not restored; reattach the
// changefeed after Restore as at first boot.
func Restore(store *lstlog.Store, fs *storage.NameNode, clock *sim.Clock) (*ControlPlane, error) {
	cp := New(fs, clock)
	cp.log = store
	data, err := store.ReadSubFile(manifestName)
	if errors.Is(err, os.ErrNotExist) {
		return cp, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: reading manifest: %w", err)
	}
	var m logManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("catalog: parsing manifest: %w", err)
	}
	for _, md := range m.Databases {
		if err := checkName("database", md.Name); err != nil {
			return nil, err
		}
		if _, dup := cp.dbs[md.Name]; dup {
			return nil, fmt.Errorf("catalog: manifest names database %q twice", md.Name)
		}
		cp.dbs[md.Name] = &Database{Name: md.Name, Tenant: md.Tenant}
		cp.tables[md.Name] = make(map[string]*entry)
		if md.QuotaObjects > 0 {
			fs.SetQuota(md.Name, md.QuotaObjects)
		}
		for _, mt := range md.Tables {
			if err := checkName("table", mt.Name); err != nil {
				return nil, fmt.Errorf("%w in database %q", err, md.Name)
			}
			t, tlog, err := store.OpenTable(md.Name, mt.Name, fs, clock)
			if err != nil {
				return nil, fmt.Errorf("catalog: restoring %s.%s: %w", md.Name, mt.Name, err)
			}
			if t.Database() != md.Name || t.Name() != mt.Name {
				return nil, fmt.Errorf("catalog: restoring %s.%s: its log replays table %s", md.Name, mt.Name, t.FullName())
			}
			t.SetActionSink(tlog.Sink())
			e := &entry{table: t}
			if mt.Policies != nil {
				e.policies = *mt.Policies
			}
			cp.tables[md.Name][mt.Name] = e
		}
	}
	return cp, nil
}
