package lst

import (
	"fmt"
	"time"

	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Action kinds, one per state transition the commit log records.
const (
	// ActionCreate records table creation (version 0 metadata).
	ActionCreate = "create"
	// ActionCommit records one committed write transaction.
	ActionCommit = "commit"
	// ActionExpire records a snapshot expiry that reclaimed objects.
	ActionExpire = "expire"
	// ActionCheckpoint records a metadata checkpoint. Its sink receives
	// the resulting table state, which the durable backend writes to a
	// compacted-log artifact; the action record itself has no payload.
	ActionCheckpoint = "checkpoint"
	// ActionRewriteManifests records a manifest consolidation.
	ActionRewriteManifests = "rewrite-manifests"
)

// Action is one entry of a table's commit log: the delta-log-style
// record from which Apply reproduces the state transition exactly.
// Commits carry their outputs (assigned file paths, the snapshot
// record, the post-commit file-ID counter) rather than their inputs, so
// replay never consults the clock or re-runs path assignment; the
// maintenance kinds carry only their parameters because those
// operations are fully determined by the table state they run against.
type Action struct {
	Kind string `json:"kind"`
	// Version is the table's metadata version after the action (commits
	// advance it; maintenance actions leave it unchanged).
	Version int64 `json:"version"`
	// At is the virtual time of the action.
	At time.Duration `json:"at_ns"`

	// Config describes the table for ActionCreate.
	Config *TableConfig `json:"config,omitempty"`

	// Commit payload: the files the commit added (with their assigned
	// paths), the paths it removed, the snapshot it appended, and the
	// file-ID counter after path assignment.
	Op         *Operation `json:"op,omitempty"`
	Added      []DataFile `json:"added,omitempty"`
	Removed    []string   `json:"removed,omitempty"`
	Snapshot   *Snapshot  `json:"snapshot,omitempty"`
	NextFileID int64      `json:"next_file_id,omitempty"`

	// KeepLast is the ActionExpire retention parameter.
	KeepLast int `json:"keep_last,omitempty"`

	// State is the post-checkpoint table state (ActionCheckpoint only),
	// handed to the sink for the compacted artifact. It is not part of
	// the encoded record: replay recomputes a checkpoint from the state
	// it runs against, and an older record's "state" key is ignored.
	State *TableState `json:"-"`
}

// ActionSink receives every logged action of a table, synchronously,
// while the table lock is held — so the log order is exactly the commit
// order. A sink error is returned to the committer; by then the
// in-memory state has already advanced, so the table is ahead of its
// log and recovery falls back to the last durable version (the same
// contract a crashed process leaves behind).
type ActionSink func(Action) error

// SetActionSink installs s as the table's durable commit log (nil
// detaches). The sink sees commits and maintenance operations from the
// moment it is attached; attach it at creation time (after logging
// CreateAction) to capture the table's full history.
func (t *Table) SetActionSink(s ActionSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.actionSink = s
}

// CreateAction returns the action recording this table's creation — the
// first entry of its commit log.
func (t *Table) CreateAction() Action {
	t.mu.Lock()
	defer t.mu.Unlock()
	cfg := t.cfg
	return Action{Kind: ActionCreate, Version: 0, At: t.created, Config: &cfg}
}

// ReplayCreate reconstructs a fresh table from its create action,
// writing the version-0 metadata object.
func ReplayCreate(a Action, fs *storage.NameNode, clock *sim.Clock) (*Table, error) {
	if a.Kind != ActionCreate || a.Config == nil {
		return nil, fmt.Errorf("lst: replay: not a create action")
	}
	t, err := newTable(*a.Config, fs, clock)
	if err != nil {
		return nil, err
	}
	t.created = a.At
	if err := t.writeMetadataLocked(0); err != nil {
		return nil, err
	}
	return t, nil
}

// Apply replays one logged action against the table. Actions must be
// applied in log order; commits are checked against the expected next
// version. Apply refuses to run while an action sink is attached —
// replay reconstructs the log's effects, it must not re-log them.
func (t *Table) Apply(a Action) error {
	t.mu.Lock()
	if t.actionSink != nil {
		t.mu.Unlock()
		return fmt.Errorf("lst: replay: detach the action sink before Apply")
	}
	t.mu.Unlock()
	switch a.Kind {
	case ActionCommit:
		return t.applyCommit(a)
	case ActionExpire:
		_, err := t.expireSnapshots(a.KeepLast)
		return err
	case ActionCheckpoint:
		_, err := t.checkpoint()
		return err
	case ActionRewriteManifests:
		_, err := t.rewriteManifests()
		return err
	case ActionCreate:
		return fmt.Errorf("lst: replay: create action applied to an existing table")
	default:
		return fmt.Errorf("lst: replay: unknown action kind %q", a.Kind)
	}
}

// applyCommit checks a logged commit against the table (a snapshot
// record, the next version, live removals) and applies it.
func (t *Table) applyCommit(a Action) error {
	if a.Snapshot == nil {
		return fmt.Errorf("lst: replay: commit action lacks a snapshot")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a.Version != t.version+1 {
		return fmt.Errorf("lst: replay: commit action v%d against table v%d", a.Version, t.version)
	}
	for _, path := range a.Removed {
		if _, ok := t.files[path]; !ok {
			return fmt.Errorf("lst: replay: removed file %s is not live", path)
		}
	}
	return t.applyCommitLocked(a)
}

// applyCommitLocked is the one state transition of a commit, shared by
// Transaction.commit and replay: every output (paths, snapshot, counters,
// timestamps) comes from the record. Must hold t.mu.
func (t *Table) applyCommitLocked(a Action) error {
	for _, path := range a.Removed {
		delete(t.files, path)
		if err := t.fs.Delete(path); err != nil {
			return fmt.Errorf("lst: removing %s: %w", path, err)
		}
	}
	t.nextSnapID = a.Snapshot.ID
	for i := range a.Added {
		f := a.Added[i]
		if err := t.fs.Create(f.Path, f.SizeBytes); err != nil {
			return err
		}
		t.files[f.Path] = &f
	}
	t.nextFileID = a.NextFileID
	if _, err := t.writeManifestsLocked(a.Snapshot.ID, len(a.Added)+len(a.Removed)); err != nil {
		return err
	}
	t.version = a.Version
	if err := t.writeMetadataLocked(t.version); err != nil {
		return err
	}
	snap := *a.Snapshot
	t.snapshots = append(t.snapshots, &snap)
	t.lastWrite = snap.Timestamp
	t.writeCount++
	return nil
}

// logLocked hands a to the action sink, if one is attached; a checkpoint
// carries the table state for the sink's artifact only then. Must hold
// t.mu.
func (t *Table) logLocked(a Action) error {
	if t.actionSink == nil {
		return nil
	}
	if a.Kind == ActionCheckpoint {
		a.State = t.stateLocked()
	}
	return t.actionSink(a)
}
