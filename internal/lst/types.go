// Package lst implements a log-structured table format in the style of
// Apache Iceberg: data lives in immutable files, a metadata layer records
// table versions (snapshots plus manifests), and a protocol based on
// optimistic concurrency coordinates read and write operations.
//
// The package reproduces the semantics the paper depends on:
//
//   - append-only writes that accumulate layers of (often small) files;
//   - per-commit metadata files (metadata.json + manifests) that themselves
//     contribute to small-file proliferation (§2, cause iv);
//   - Copy-on-Write and Merge-on-Read update modes (§2, cause ii);
//   - an optimistic commit protocol whose rewrite (compaction) validation
//     can conflict even across disjoint partitions, matching the behaviour
//     the paper observed with Apache Iceberg v1.2.0 (§4.4) — controlled by
//     TableConfig.StrictRewriteConflicts;
//   - snapshot expiration as a separate maintenance action.
//
// Rows are not materialized: each DataFile carries (SizeBytes, RowCount),
// which is the only information compaction decisions consume.
package lst

import (
	"errors"
	"time"
)

// Errors returned by the commit protocol.
var (
	// ErrCommitConflict indicates optimistic-concurrency validation
	// failed: another transaction committed a conflicting change after
	// this transaction's base snapshot.
	ErrCommitConflict = errors.New("lst: commit conflict")
	// ErrStaleFiles indicates the transaction tried to remove files that
	// are no longer part of the live file set.
	ErrStaleFiles = errors.New("lst: files to remove are not live")
	// ErrTransactionDone indicates Commit was called twice.
	ErrTransactionDone = errors.New("lst: transaction already finished")
)

// ColumnType enumerates the column types a table schema declares. Rows
// are not materialized, so no decision reads a column's type.
type ColumnType int

// Column types.
const (
	TypeInt64 ColumnType = iota
	TypeFloat64
	TypeDecimal
	TypeString
	TypeDate
	TypeBool
)

// Field is a named, typed column.
type Field struct {
	Name string
	Type ColumnType
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
}

// Transform is a partition transform in the Iceberg sense.
type Transform int

// Partition transforms.
const (
	TransformIdentity Transform = iota
	TransformMonth
	TransformDay
	TransformBucket
)

// PartitionSpec describes how a table is partitioned. A zero PartitionSpec
// (empty Column) means the table is unpartitioned.
type PartitionSpec struct {
	Column    string
	Transform Transform
	Buckets   int // for TransformBucket
}

// IsPartitioned reports whether the spec partitions the table.
func (p PartitionSpec) IsPartitioned() bool { return p.Column != "" }

// WriteMode selects how updates and deletes are applied (§2, cause ii).
type WriteMode int

// Write modes.
const (
	// CopyOnWrite rewrites affected data files in place.
	CopyOnWrite WriteMode = iota
	// MergeOnRead appends delta (delete/update) files that accumulate
	// until compaction merges them.
	MergeOnRead
)

func (m WriteMode) String() string {
	if m == MergeOnRead {
		return "merge-on-read"
	}
	return "copy-on-write"
}

// Operation identifies the kind of change a snapshot applied.
type Operation int

// Snapshot operations.
const (
	OpAppend Operation = iota
	OpOverwrite
	OpDelete
	OpRewrite // compaction
)

func (o Operation) String() string {
	switch o {
	case OpAppend:
		return "append"
	case OpOverwrite:
		return "overwrite"
	case OpDelete:
		return "delete"
	case OpRewrite:
		return "rewrite"
	default:
		return "unknown"
	}
}

// DataFile is an immutable data (or delta) file reference tracked by the
// table metadata.
type DataFile struct {
	Path      string
	Partition string // "" on unpartitioned tables
	SizeBytes int64
	RowCount  int64
	IsDelta   bool // true for MergeOnRead delete/update files
	// Clustered marks files written under a clustering layout
	// (Z-order/V-order style): their column statistics enable data
	// skipping on selective scans.
	Clustered bool
	AddedAt   time.Duration
	Snapshot  int64 // snapshot ID that added the file
}

// FileSpec describes a data file a writer wants to add; the table assigns
// the path.
type FileSpec struct {
	Partition string
	SizeBytes int64
	RowCount  int64
	IsDelta   bool
	Clustered bool
}

// Snapshot records one committed table version.
type Snapshot struct {
	ID         int64
	Sequence   int64 // equals the table version that produced it
	Timestamp  time.Duration
	Op         Operation
	Added      int
	Removed    int
	AddedBytes int64
	// Partitions lists the partitions the snapshot touched. A nil or
	// empty value on a partitioned table means "no partition info"; the
	// sentinel WholeTable entry means the operation spanned the table.
	Partitions []string
	// Manifests is the number of manifest files the commit wrote.
	Manifests int
	// TotalFiles and TotalBytes are the live totals after this commit.
	TotalFiles int
	TotalBytes int64
}

// WholeTable is the partition sentinel for operations that span the whole
// table (including all operations on unpartitioned tables).
const WholeTable = "\x00whole-table"

// touchesWholeTable reports whether parts includes the whole-table
// sentinel.
func touchesWholeTable(parts []string) bool {
	for _, p := range parts {
		if p == WholeTable {
			return true
		}
	}
	return false
}

// partitionsOverlap reports whether two partition sets intersect, treating
// WholeTable as overlapping everything.
func partitionsOverlap(a, b []string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if touchesWholeTable(a) || touchesWholeTable(b) {
		return true
	}
	set := make(map[string]struct{}, len(a))
	for _, p := range a {
		set[p] = struct{}{}
	}
	for _, p := range b {
		if _, ok := set[p]; ok {
			return true
		}
	}
	return false
}
