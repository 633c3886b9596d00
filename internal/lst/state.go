package lst

import (
	"fmt"
	"sort"
	"time"

	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// MetaObjectState is the serialized form of one tracked metadata object.
// Kind uses the metaKind numbering (0 metadata.json, 1 manifest,
// 2 checkpoint); Ref keeps the metaObject.ref semantics, including the
// liveManifest sentinel.
type MetaObjectState struct {
	Path string `json:"path"`
	Kind int    `json:"kind"`
	Ref  int64  `json:"ref"`
	Size int64  `json:"size"`
}

// TableState is the complete serializable state of a Table: everything
// FromState needs to reconstruct a byte-identical table (and its storage
// objects) in a fresh process. Files are sorted by path and Meta keeps
// the metadata-log order, so equal tables always produce deeply equal
// states — the invariant the durable backend's replay tests pin.
type TableState struct {
	Config                TableConfig       `json:"config"`
	Version               int64             `json:"version"`
	Snapshots             []Snapshot        `json:"snapshots,omitempty"`
	Files                 []DataFile        `json:"files,omitempty"`
	Meta                  []MetaObjectState `json:"meta,omitempty"`
	NextFileID            int64             `json:"next_file_id"`
	NextSnapID            int64             `json:"next_snap_id"`
	Created               time.Duration     `json:"created_ns"`
	LastWrite             time.Duration     `json:"last_write_ns"`
	WriteCount            int64             `json:"write_count"`
	LastCheckpointVersion int64             `json:"last_checkpoint_version"`
}

// State returns the table's complete serializable state.
func (t *Table) State() *TableState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stateLocked()
}

func (t *Table) stateLocked() *TableState {
	st := &TableState{
		Config:                t.cfg,
		Version:               t.version,
		NextFileID:            t.nextFileID,
		NextSnapID:            t.nextSnapID,
		Created:               t.created,
		LastWrite:             t.lastWrite,
		WriteCount:            t.writeCount,
		LastCheckpointVersion: t.lastCheckpointVersion,
	}
	st.Snapshots = make([]Snapshot, len(t.snapshots))
	for i, s := range t.snapshots {
		st.Snapshots[i] = *s
	}
	st.Files = make([]DataFile, 0, len(t.files))
	for _, f := range t.files {
		st.Files = append(st.Files, *f)
	}
	sort.Slice(st.Files, func(i, j int) bool { return st.Files[i].Path < st.Files[j].Path })
	st.Meta = make([]MetaObjectState, len(t.metaObjects))
	for i, m := range t.metaObjects {
		st.Meta[i] = MetaObjectState{Path: m.path, Kind: int(m.kind), Ref: m.ref, Size: m.size}
	}
	return st
}

// FromState reconstructs a table from a serialized state, recreating its
// data and metadata objects in fs. The target namespace must not already
// hold objects at the table's paths. Object creation times in fs reflect
// the reconstruction clock, not the original writes — nothing reads
// them; every time the table itself exposes (Created, LastWrite,
// snapshot timestamps, per-file AddedAt) is restored exactly.
func FromState(st *TableState, fs *storage.NameNode, clock *sim.Clock) (*Table, error) {
	t, err := newTable(st.Config, fs, clock)
	if err != nil {
		return nil, err
	}
	t.version = st.Version
	t.nextFileID = st.NextFileID
	t.nextSnapID = st.NextSnapID
	t.created = st.Created
	t.lastWrite = st.LastWrite
	t.writeCount = st.WriteCount
	t.lastCheckpointVersion = st.LastCheckpointVersion
	t.snapshots = make([]*Snapshot, len(st.Snapshots))
	for i := range st.Snapshots {
		s := st.Snapshots[i]
		t.snapshots[i] = &s
	}
	for i := range st.Files {
		f := st.Files[i]
		if err := fs.Create(f.Path, f.SizeBytes); err != nil {
			return nil, fmt.Errorf("lst: restoring %s: %w", f.Path, err)
		}
		t.files[f.Path] = &f
	}
	t.metaObjects = make([]metaObject, len(st.Meta))
	for i, m := range st.Meta {
		if err := fs.Create(m.Path, m.Size); err != nil {
			return nil, fmt.Errorf("lst: restoring %s: %w", m.Path, err)
		}
		t.metaObjects[i] = metaObject{path: m.Path, kind: metaKind(m.Kind), ref: m.Ref, size: m.Size}
	}
	return t, nil
}
