// Package lstlog is the durable commit-log storage backend for
// internal/lst, in the style of delta-rs's _delta_log: every committed
// table version appends one JSON action file under the table's
// _delta_log/ directory, metadata checkpoints additionally emit a
// NNNN.NNNN.compacted.json artifact embedding the full table state, and
// OpenTable reconstructs a byte-identical table by replaying the log —
// preferring the newest parseable compacted artifact, then applying the
// version tail.
//
// Layout under a store root:
//
//	<root>/_catalog.json                          control-plane manifest
//	<root>/<db>/<table>/_delta_log/%020d.json     one action per LSN
//	<root>/<db>/<table>/_delta_log/%020d.%020d.compacted.json
//
// Action files are written atomically (temp file + rename); with fsync
// policy "always" every write is synced to disk before the rename and
// the directory is synced after it. A torn or missing tail file is the
// crash signature recovery expects: replay stops at the first gap and
// the table resumes from its last durable version. docs/storage.md
// documents the schema and the recovery algorithm.
package lstlog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Fsync policies.
const (
	// FsyncAlways syncs every action file and its directory.
	FsyncAlways = "always"
	// FsyncNone leaves durability to the OS page cache (the default).
	FsyncNone = "none"
)

// Config describes a store.
type Config struct {
	// Root is the directory holding the persisted lake.
	Root string
	// Fsync is "always" or "none" (empty means "none").
	Fsync string
}

// Store is a rooted on-disk lake: a directory of per-table commit logs
// plus the control-plane manifest.
type Store struct {
	root  string
	fsync bool
}

// Open validates cfg, creates the root directory if needed, and returns
// the store.
func Open(cfg Config) (*Store, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("lstlog: store requires a root directory")
	}
	switch cfg.Fsync {
	case "", FsyncNone:
	case FsyncAlways:
	default:
		return nil, fmt.Errorf("lstlog: unknown fsync policy %q (have: %q, %q)", cfg.Fsync, FsyncAlways, FsyncNone)
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("lstlog: %w", err)
	}
	return &Store{root: cfg.Root, fsync: cfg.Fsync == FsyncAlways}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// TableDir returns the directory of one table's persisted state.
func (s *Store) TableDir(db, name string) string {
	return filepath.Join(s.root, db, name)
}

// CreateTableLog starts the table's log from nothing: it removes any
// directory an earlier log left at the table's path (debris of a create
// that never became durable, or of a dropped table), creates an empty
// _delta_log directory and returns a log at LSN 0, whose first append
// must be the table's create action.
func (s *Store) CreateTableLog(db, name string) (*TableLog, error) {
	if err := s.RemoveTable(db, name); err != nil {
		return nil, fmt.Errorf("lstlog: %w", err)
	}
	dir := filepath.Join(s.TableDir(db, name), logDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lstlog: %w", err)
	}
	return &TableLog{dir: dir, fsync: s.fsync}, nil
}

// OpenTable reconstructs one of the store's tables (see the package
// OpenTable), returning a log that appends under the store's fsync
// policy.
func (s *Store) OpenTable(db, name string, fs *storage.NameNode, clock *sim.Clock) (*lst.Table, *TableLog, error) {
	t, l, err := openTable(s.TableDir(db, name), fs, clock, true)
	if err != nil {
		return nil, nil, err
	}
	l.fsync = s.fsync
	return t, l, nil
}

// RemoveTable deletes the table's persisted directory (the durable
// counterpart of a catalog drop).
func (s *Store) RemoveTable(db, name string) error {
	return os.RemoveAll(s.TableDir(db, name))
}

// WriteSubFile atomically writes a file at a slash-relative path under
// the store root, creating parent directories. The control plane keeps
// its manifest here, and hosts persist their own control state (e.g.
// tenant fleet snapshots) alongside the lake, under the store's fsync
// policy.
func (s *Store) WriteSubFile(rel string, data []byte) error {
	return s.StreamSubFile(rel, writeBytes(data))
}

// StreamSubFile is WriteSubFile for content too large to build in
// memory first: write streams it into the temp file that then replaces
// the target. If write fails, the target keeps its previous content and
// the temp file is removed.
func (s *Store) StreamSubFile(rel string, write func(io.Writer) error) error {
	path := filepath.Join(s.root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("lstlog: %w", err)
	}
	return writeFileAtomic(path, write, s.fsync)
}

// ReadSubFile reads a slash-relative file under the store root.
func (s *Store) ReadSubFile(rel string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.root, filepath.FromSlash(rel)))
}

// writeBytes is a writeFileAtomic callback that writes data.
func writeBytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// writeFileAtomic writes path's content through write into a temp file
// and renames it over path, so a crash or a failed write never leaves a
// half-written file at path; the temp file is removed on any error.
// With sync set, the file is fsynced before the rename and the
// directory after.
func writeFileAtomic(path string, write func(io.Writer) error, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync {
		if d, err := os.Open(dir); err == nil {
			_ = d.Sync()
			_ = d.Close()
		}
	}
	return nil
}
