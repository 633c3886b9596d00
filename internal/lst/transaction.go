package lst

import (
	"fmt"
	"sort"

	"autocomp/internal/storage"
)

// Transaction is an optimistic write against a table. Its base version is
// captured at creation; Commit validates against commits that landed in
// between, per operation-specific rules (Iceberg-style).
//
// A Transaction is not safe for concurrent use; concurrency happens across
// transactions.
type Transaction struct {
	t           *Table
	op          Operation
	baseVersion int64
	adds        []FileSpec
	removes     []string
	parts       map[string]struct{}
	done        bool
}

// NewTransaction starts a transaction of the given operation kind against
// the table's current version.
func (t *Table) NewTransaction(op Operation) *Transaction {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Transaction{
		t:           t,
		op:          op,
		baseVersion: t.version,
		parts:       make(map[string]struct{}),
	}
}

// Add stages a new data file described by spec.
func (tx *Transaction) Add(spec FileSpec) {
	tx.adds = append(tx.adds, spec)
	tx.touch(spec.Partition)
}

// Remove stages the removal of a live file by path. The partition is used
// for conflict validation.
func (tx *Transaction) Remove(path, partition string) {
	tx.removes = append(tx.removes, path)
	tx.touch(partition)
}

func (tx *Transaction) touch(partition string) {
	if !tx.t.cfg.Spec.IsPartitioned() || partition == "" {
		tx.parts[WholeTable] = struct{}{}
		return
	}
	tx.parts[partition] = struct{}{}
}

// partitions returns the touched partitions sorted, so a commit's
// snapshot record does not depend on map iteration order.
func (tx *Transaction) partitions() []string {
	out := make([]string, 0, len(tx.parts))
	for p := range tx.parts {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Commit validates and applies the transaction. On success it returns the
// new snapshot. Validation failures return ErrCommitConflict (wrapped) and
// leave the table unchanged; the caller may retry with a fresh
// transaction. Storage-level failures (e.g. namespace quota exhaustion)
// are returned as-is.
//
// A successful commit publishes a CommitEvent to the table's commit hook
// (SetCommitHook), outside the table lock — the observation plane's
// changefeed subscribes there.
func (tx *Transaction) Commit() (*Snapshot, error) {
	snap, err := tx.commit()
	if err != nil {
		return nil, err
	}
	if h := tx.t.commitHook(); h != nil {
		h(CommitEvent{Table: tx.t, Snapshot: snap})
	}
	return snap, nil
}

// commit is the locked body of Commit: it validates the transaction,
// fixes its log record (assigned paths, the snapshot, the file-ID
// counter), applies that record exactly as replay does, and logs it.
func (tx *Transaction) commit() (*Snapshot, error) {
	if tx.done {
		return nil, ErrTransactionDone
	}
	tx.done = true

	t := tx.t
	t.mu.Lock()
	defer t.mu.Unlock()

	if err := tx.validateLocked(); err != nil {
		return nil, err
	}

	// Quota pre-check: the commit will create len(adds) data objects plus
	// metadata objects; fail atomically before touching storage.
	changed := len(tx.adds) + len(tx.removes)
	manifests := 0
	if changed > 0 {
		manifests = (changed + t.cfg.ManifestEntriesPerFile - 1) / t.cfg.ManifestEntriesPerFile
	}
	if q, ok := t.fs.QuotaFor(t.cfg.Database); ok && q.Max > 0 {
		needed := int64(len(tx.adds)+manifests+1) - int64(len(tx.removes))
		if q.Used+needed > q.Max {
			return nil, fmt.Errorf("%w: namespace %q needs %d objects",
				storage.ErrQuotaExceeded, t.cfg.Database, needed)
		}
	}

	now := t.clock.Now()
	snap := &Snapshot{
		ID:         t.nextSnapID + 1,
		Sequence:   t.version + 1,
		Timestamp:  now,
		Op:         tx.op,
		Added:      len(tx.adds),
		Removed:    len(tx.removes),
		Partitions: tx.partitions(),
		Manifests:  manifests,
		TotalFiles: len(t.files) + len(tx.adds) - len(tx.removes),
	}
	for _, f := range t.files {
		snap.TotalBytes += f.SizeBytes
	}
	for _, path := range tx.removes {
		snap.TotalBytes -= t.files[path].SizeBytes
	}
	added := make([]DataFile, len(tx.adds))
	fileID := t.nextFileID
	for i, spec := range tx.adds {
		fileID++
		added[i] = DataFile{
			Path:      t.dataPath(spec.Partition, fileID),
			Partition: spec.Partition,
			SizeBytes: spec.SizeBytes,
			RowCount:  spec.RowCount,
			IsDelta:   spec.IsDelta,
			Clustered: spec.Clustered,
			AddedAt:   now,
			Snapshot:  snap.ID,
		}
		snap.AddedBytes += spec.SizeBytes
	}
	snap.TotalBytes += snap.AddedBytes
	op := tx.op
	a := Action{
		Kind:       ActionCommit,
		Version:    snap.Sequence,
		At:         now,
		Op:         &op,
		Added:      added,
		Removed:    tx.removes,
		Snapshot:   snap,
		NextFileID: fileID,
	}
	if err := t.applyCommitLocked(a); err != nil {
		return nil, err
	}
	if err := t.logLocked(a); err != nil {
		// The in-memory commit has landed but its log record has not:
		// the table is now ahead of its durable log, exactly as a
		// crash between apply and log write would leave it. Surface
		// the durability failure to the committer.
		return nil, fmt.Errorf("lst: commit logged no action: %w", err)
	}
	out := *snap
	return &out, nil
}

// validateLocked implements the conflict rules. Must hold t.mu.
func (tx *Transaction) validateLocked() error {
	t := tx.t

	// Removed files must still be live regardless of versions; a stale
	// removal means another commit already rewrote or deleted them.
	for _, path := range tx.removes {
		if _, ok := t.files[path]; !ok {
			return fmt.Errorf("%w: %s (%w)", ErrStaleFiles, path, ErrCommitConflict)
		}
	}

	if tx.baseVersion == t.version {
		return nil // no concurrent commits
	}
	concurrent := t.snapshots[tx.baseVersion:]

	switch tx.op {
	case OpAppend:
		// Fast-append: appends never conflict, they rebase onto the new
		// metadata (Iceberg's snapshot-isolation append path).
		return nil

	case OpOverwrite, OpDelete:
		// Conflict when a concurrent non-append touched overlapping
		// partitions: the rows this operation intended to replace may
		// have changed.
		mine := tx.partitions()
		for _, s := range concurrent {
			if s.Op == OpAppend {
				continue
			}
			if partitionsOverlap(mine, s.Partitions) {
				return fmt.Errorf("lst: %s vs concurrent %s on overlapping partitions: %w",
					tx.op, s.Op, ErrCommitConflict)
			}
		}
		return nil

	case OpRewrite:
		// Fast appends never invalidate a rewrite. Replace-type commits
		// (overwrite/delete) invalidate it when their partitions overlap
		// the rewrite's — so whole-table compactions are exposed to
		// every concurrent update while partition-scope ones only race
		// writes to that partition (§6.2: disruption probability falls
		// with candidate size). Under StrictRewriteConflicts, a
		// concurrent rewrite additionally conflicts even on disjoint
		// partitions — the Iceberg v1.2.0 behaviour of §4.4 that forces
		// partition-sequential scheduling.
		mine := tx.partitions()
		for _, s := range concurrent {
			if s.Op == OpAppend {
				continue
			}
			if s.Op == OpRewrite && t.cfg.StrictRewriteConflicts {
				return fmt.Errorf("lst: rewrite vs concurrent rewrite (strict validation, disjoint partitions conflict): %w",
					ErrCommitConflict)
			}
			if partitionsOverlap(mine, s.Partitions) {
				return fmt.Errorf("lst: rewrite vs concurrent %s on overlapping partitions: %w",
					s.Op, ErrCommitConflict)
			}
		}
		return nil

	default:
		return fmt.Errorf("lst: unknown operation %d", tx.op)
	}
}

// AppendFiles is a convenience wrapper: stage and commit an append of the
// given file specs in one call.
func (t *Table) AppendFiles(specs []FileSpec) (*Snapshot, error) {
	tx := t.NewTransaction(OpAppend)
	for _, s := range specs {
		tx.Add(s)
	}
	return tx.Commit()
}

// OverwritePartition replaces all live files in a partition with the given
// specs (Copy-on-Write update path).
func (t *Table) OverwritePartition(partition string, specs []FileSpec) (*Snapshot, error) {
	tx := t.NewTransaction(OpOverwrite)
	for _, f := range t.FilesInPartition(partition) {
		tx.Remove(f.Path, f.Partition)
	}
	for _, s := range specs {
		tx.Add(s)
	}
	return tx.Commit()
}
