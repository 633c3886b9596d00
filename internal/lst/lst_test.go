package lst

import (
	"errors"
	"testing"
	"time"

	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func testSetup() (*storage.NameNode, *sim.Clock) {
	clock := sim.NewClock()
	return storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1)), clock
}

func newPartitionedTable(t *testing.T, fs *storage.NameNode, clock *sim.Clock, strict bool) *Table {
	t.Helper()
	tbl, err := NewTable(TableConfig{
		Database: "db1",
		Name:     "lineitem",
		Schema:   Schema{Fields: []Field{{Name: "l_orderkey", Type: TypeInt64}, {Name: "l_shipdate", Type: TypeDate}}},
		Spec:     PartitionSpec{Column: "l_shipdate", Transform: TransformMonth},
		Mode:     CopyOnWrite,

		StrictRewriteConflicts: strict,
	}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newUnpartitionedTable(t *testing.T, fs *storage.NameNode, clock *sim.Clock) *Table {
	t.Helper()
	tbl, err := NewTable(TableConfig{
		Database: "db1",
		Name:     "orders",
		Schema:   Schema{Fields: []Field{{Name: "o_orderkey", Type: TypeInt64}}},
	}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableWritesMetadata(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	if tbl.MetadataObjectCount() != 1 {
		t.Fatalf("metadata objects = %d, want 1 (v0)", tbl.MetadataObjectCount())
	}
	if fs.ObjectCount() != 1 {
		t.Fatalf("fs objects = %d", fs.ObjectCount())
	}
	if tbl.Version() != 0 || tbl.FileCount() != 0 {
		t.Fatalf("fresh table version=%d files=%d", tbl.Version(), tbl.FileCount())
	}
}

func TestNewTableValidation(t *testing.T) {
	fs, clock := testSetup()
	if _, err := NewTable(TableConfig{Name: "x"}, fs, clock); err == nil {
		t.Fatal("missing database accepted")
	}
	if _, err := NewTable(TableConfig{Database: "d"}, fs, clock); err == nil {
		t.Fatal("missing name accepted")
	}
}

func TestAppendFiles(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	snap, err := tbl.AppendFiles([]FileSpec{
		{Partition: "2024-01", SizeBytes: 10 * storage.MB, RowCount: 1000},
		{Partition: "2024-01", SizeBytes: 20 * storage.MB, RowCount: 2000},
		{Partition: "2024-02", SizeBytes: 600 * storage.MB, RowCount: 60000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Op != OpAppend || snap.Added != 3 || snap.Removed != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if tbl.FileCount() != 3 {
		t.Fatalf("file count = %d", tbl.FileCount())
	}
	if tbl.TotalBytes() != 630*storage.MB {
		t.Fatalf("total bytes = %d", tbl.TotalBytes())
	}
	if got := tbl.SmallFileCount(512 * storage.MB); got != 2 {
		t.Fatalf("small files = %d, want 2", got)
	}
	parts := tbl.Partitions()
	if len(parts) != 2 || parts[0] != "2024-01" || parts[1] != "2024-02" {
		t.Fatalf("partitions = %v", parts)
	}
	if got := len(tbl.FilesInPartition("2024-01")); got != 2 {
		t.Fatalf("files in 2024-01 = %d", got)
	}
	if tbl.Version() != 1 {
		t.Fatalf("version = %d", tbl.Version())
	}
}

func TestAppendNeverConflicts(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	tx1 := tbl.NewTransaction(OpAppend)
	tx1.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})
	tx2 := tbl.NewTransaction(OpAppend)
	tx2.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})
	if _, err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatalf("concurrent append conflicted: %v", err)
	}
	if tbl.FileCount() != 2 {
		t.Fatalf("file count = %d", tbl.FileCount())
	}
}

func TestOverwriteConflictsOnOverlap(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	if _, err := tbl.AppendFiles([]FileSpec{
		{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10},
		{Partition: "2024-02", SizeBytes: storage.MB, RowCount: 10},
	}); err != nil {
		t.Fatal(err)
	}

	// Two overwrites on the same partition: second must conflict.
	a := tbl.NewTransaction(OpOverwrite)
	a.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})
	b := tbl.NewTransaction(OpOverwrite)
	b.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); !errors.Is(err, ErrCommitConflict) {
		t.Fatalf("overlapping overwrite: %v", err)
	}

	// Disjoint partitions do not conflict.
	c := tbl.NewTransaction(OpOverwrite)
	c.Add(FileSpec{Partition: "2024-02", SizeBytes: storage.MB, RowCount: 10})
	d := tbl.NewTransaction(OpOverwrite)
	d.Add(FileSpec{Partition: "2024-03", SizeBytes: storage.MB, RowCount: 10})
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(); err != nil {
		t.Fatalf("disjoint overwrite conflicted: %v", err)
	}
}

func TestOverwriteIgnoresConcurrentAppend(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	ow := tbl.NewTransaction(OpOverwrite)
	ow.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})
	if _, err := tbl.AppendFiles([]FileSpec{{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ow.Commit(); err != nil {
		t.Fatalf("overwrite after concurrent append conflicted: %v", err)
	}
}

func TestStrictRewriteConflictsAcrossDisjointPartitions(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, true) // Iceberg v1.2.0 quirk on
	if _, err := tbl.AppendFiles([]FileSpec{
		{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10},
		{Partition: "2024-02", SizeBytes: storage.MB, RowCount: 10},
	}); err != nil {
		t.Fatal(err)
	}

	jan := tbl.FilesInPartition("2024-01")
	feb := tbl.FilesInPartition("2024-02")

	rw1 := tbl.NewTransaction(OpRewrite)
	rw1.Remove(jan[0].Path, jan[0].Partition)
	rw1.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})

	rw2 := tbl.NewTransaction(OpRewrite)
	rw2.Remove(feb[0].Path, feb[0].Partition)
	rw2.Add(FileSpec{Partition: "2024-02", SizeBytes: storage.MB, RowCount: 10})

	if _, err := rw1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Distinct partitions, but strict validation rejects it — the paper's
	// counterintuitive observation (§4.4).
	if _, err := rw2.Commit(); !errors.Is(err, ErrCommitConflict) {
		t.Fatalf("strict rewrite on disjoint partitions: %v", err)
	}
}

func TestRelaxedRewriteAllowsDisjointPartitions(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	if _, err := tbl.AppendFiles([]FileSpec{
		{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10},
		{Partition: "2024-02", SizeBytes: storage.MB, RowCount: 10},
	}); err != nil {
		t.Fatal(err)
	}
	jan := tbl.FilesInPartition("2024-01")
	feb := tbl.FilesInPartition("2024-02")

	rw1 := tbl.NewTransaction(OpRewrite)
	rw1.Remove(jan[0].Path, jan[0].Partition)
	rw1.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})
	rw2 := tbl.NewTransaction(OpRewrite)
	rw2.Remove(feb[0].Path, feb[0].Partition)
	rw2.Add(FileSpec{Partition: "2024-02", SizeBytes: storage.MB, RowCount: 10})

	if _, err := rw1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := rw2.Commit(); err != nil {
		t.Fatalf("relaxed rewrite on disjoint partitions conflicted: %v", err)
	}
}

func TestRewriteStaleFileConflict(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	if _, err := tbl.AppendFiles([]FileSpec{{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10}}); err != nil {
		t.Fatal(err)
	}
	f := tbl.FilesInPartition("2024-01")[0]

	rw1 := tbl.NewTransaction(OpRewrite)
	rw1.Remove(f.Path, f.Partition)
	rw1.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})
	rw2 := tbl.NewTransaction(OpRewrite)
	rw2.Remove(f.Path, f.Partition)
	rw2.Add(FileSpec{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10})

	if _, err := rw1.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err := rw2.Commit()
	if !errors.Is(err, ErrCommitConflict) || !errors.Is(err, ErrStaleFiles) {
		t.Fatalf("stale rewrite: %v", err)
	}
}

func TestUnpartitionedOpsAlwaysOverlap(t *testing.T) {
	fs, clock := testSetup()
	tbl := newUnpartitionedTable(t, fs, clock)
	if _, err := tbl.AppendFiles([]FileSpec{{SizeBytes: storage.MB, RowCount: 10}}); err != nil {
		t.Fatal(err)
	}
	a := tbl.NewTransaction(OpOverwrite)
	a.Add(FileSpec{SizeBytes: storage.MB, RowCount: 10})
	b := tbl.NewTransaction(OpDelete)
	old := tbl.LiveFiles()[0]
	b.Remove(old.Path, old.Partition)
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); !errors.Is(err, ErrCommitConflict) {
		t.Fatalf("unpartitioned concurrent write: %v", err)
	}
}

func TestCommitTwiceFails(t *testing.T) {
	fs, clock := testSetup()
	tbl := newUnpartitionedTable(t, fs, clock)
	tx := tbl.NewTransaction(OpAppend)
	tx.Add(FileSpec{SizeBytes: storage.MB, RowCount: 1})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrTransactionDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestVersionMonotonicAndSnapshotSequence(t *testing.T) {
	fs, clock := testSetup()
	tbl := newUnpartitionedTable(t, fs, clock)
	for i := 0; i < 5; i++ {
		clock.Advance(time.Minute)
		if _, err := tbl.AppendFiles([]FileSpec{{SizeBytes: storage.MB, RowCount: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	snaps := tbl.Snapshots()
	if len(snaps) != 5 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Sequence != snaps[i-1].Sequence+1 {
			t.Fatalf("sequence gap: %d -> %d", snaps[i-1].Sequence, snaps[i].Sequence)
		}
		if snaps[i].Timestamp < snaps[i-1].Timestamp {
			t.Fatal("snapshot timestamps not monotonic")
		}
	}
	if tbl.Version() != 5 {
		t.Fatalf("version = %d", tbl.Version())
	}
	if tbl.WriteCount() != 5 {
		t.Fatalf("write count = %d", tbl.WriteCount())
	}
}

func TestPhysicalFileAccounting(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	if _, err := tbl.AppendFiles([]FileSpec{
		{Partition: "2024-01", SizeBytes: 10 * storage.MB, RowCount: 100},
		{Partition: "2024-01", SizeBytes: 10 * storage.MB, RowCount: 100},
	}); err != nil {
		t.Fatal(err)
	}
	// 1 initial metadata + 2 data + 1 manifest + 1 metadata = 5
	if got := fs.ObjectCount(); got != 5 {
		t.Fatalf("fs objects = %d, want 5", got)
	}
	// Rewrite both into one: removes 2 data objects, adds 1 data + 1
	// manifest + 1 metadata.
	files := tbl.FilesInPartition("2024-01")
	rw := tbl.NewTransaction(OpRewrite)
	for _, f := range files {
		rw.Remove(f.Path, f.Partition)
	}
	rw.Add(FileSpec{Partition: "2024-01", SizeBytes: 20 * storage.MB, RowCount: 200})
	if _, err := rw.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := fs.ObjectCount(); got != 6 {
		t.Fatalf("fs objects after rewrite = %d, want 6", got)
	}
	if tbl.FileCount() != 1 {
		t.Fatalf("live files = %d", tbl.FileCount())
	}
	if tbl.TotalBytes() != 20*storage.MB {
		t.Fatalf("bytes = %d", tbl.TotalBytes())
	}
}

func TestOverwritePartitionHelper(t *testing.T) {
	fs, clock := testSetup()
	tbl := newPartitionedTable(t, fs, clock, false)
	tbl.AppendFiles([]FileSpec{
		{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10},
		{Partition: "2024-01", SizeBytes: storage.MB, RowCount: 10},
		{Partition: "2024-02", SizeBytes: storage.MB, RowCount: 10},
	})
	snap, err := tbl.OverwritePartition("2024-01", []FileSpec{{Partition: "2024-01", SizeBytes: 2 * storage.MB, RowCount: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Removed != 2 || snap.Added != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := len(tbl.FilesInPartition("2024-01")); got != 1 {
		t.Fatalf("2024-01 files = %d", got)
	}
	if got := len(tbl.FilesInPartition("2024-02")); got != 1 {
		t.Fatalf("2024-02 files = %d", got)
	}
}

func TestMergeOnReadDeltaFiles(t *testing.T) {
	fs, clock := testSetup()
	tbl, err := NewTable(TableConfig{
		Database: "db1", Name: "mor",
		Mode: MergeOnRead,
	}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	tbl.AppendFiles([]FileSpec{{SizeBytes: 100 * storage.MB, RowCount: 1000}})
	tbl.AppendFiles([]FileSpec{{SizeBytes: storage.MB, RowCount: 10, IsDelta: true}})
	tbl.AppendFiles([]FileSpec{{SizeBytes: storage.MB, RowCount: 10, IsDelta: true}})
	if tbl.DeltaFileCount() != 2 {
		t.Fatalf("delta files = %d", tbl.DeltaFileCount())
	}
	if tbl.FileCount() != 3 {
		t.Fatalf("files = %d", tbl.FileCount())
	}
}

func TestSizeHistogram(t *testing.T) {
	fs, clock := testSetup()
	tbl := newUnpartitionedTable(t, fs, clock)
	tbl.AppendFiles([]FileSpec{
		{SizeBytes: 10 * storage.MB, RowCount: 1},
		{SizeBytes: 200 * storage.MB, RowCount: 1},
		{SizeBytes: 600 * storage.MB, RowCount: 1},
	})
	h := tbl.SizeHistogram([]int64{128 * storage.MB, 512 * storage.MB})
	if h[0] != 1 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestExpireSnapshots(t *testing.T) {
	fs, clock := testSetup()
	tbl := newUnpartitionedTable(t, fs, clock)
	for i := 0; i < 10; i++ {
		clock.Advance(time.Minute)
		if _, err := tbl.AppendFiles([]FileSpec{{SizeBytes: storage.MB, RowCount: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.ObjectCount()
	metaBefore := tbl.MetadataObjectCount()
	deleted, err := tbl.ExpireSnapshots(2)
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("expire deleted nothing")
	}
	if fs.ObjectCount() != before-deleted {
		t.Fatalf("fs objects %d -> %d with deleted=%d", before, fs.ObjectCount(), deleted)
	}
	if tbl.MetadataObjectCount() >= metaBefore {
		t.Fatalf("metadata objects not trimmed: %d -> %d", metaBefore, tbl.MetadataObjectCount())
	}
	if got := len(tbl.Snapshots()); got != 2 {
		t.Fatalf("retained snapshots = %d", got)
	}
	// Live data files must be untouched.
	if tbl.FileCount() != 10 {
		t.Fatalf("live files after expire = %d", tbl.FileCount())
	}
}

func TestExpireNoOpWhenFewSnapshots(t *testing.T) {
	fs, clock := testSetup()
	tbl := newUnpartitionedTable(t, fs, clock)
	tbl.AppendFiles([]FileSpec{{SizeBytes: storage.MB, RowCount: 1}})
	deleted, err := tbl.ExpireSnapshots(5)
	if err != nil || deleted != 0 {
		t.Fatalf("expire = %d, %v", deleted, err)
	}
}

func TestManifestCountScalesWithChanges(t *testing.T) {
	fs, clock := testSetup()
	tbl, err := NewTable(TableConfig{
		Database: "db", Name: "t", ManifestEntriesPerFile: 10,
	}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]FileSpec, 25)
	for i := range specs {
		specs[i] = FileSpec{SizeBytes: storage.MB, RowCount: 1}
	}
	snap, err := tbl.AppendFiles(specs)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Manifests != 3 {
		t.Fatalf("manifests = %d, want 3 for 25 changes @10/manifest", snap.Manifests)
	}
}

func TestQuotaExceededCommitFailsAtomically(t *testing.T) {
	fs, clock := testSetup()
	fs.SetQuota("db1", 6)
	tbl := newUnpartitionedTable(t, fs, clock) // writes 1 metadata object
	// Commit needs 3 data + 1 manifest + 1 metadata = 5 → 6 total, fits.
	if _, err := tbl.AppendFiles([]FileSpec{
		{SizeBytes: storage.MB, RowCount: 1},
		{SizeBytes: storage.MB, RowCount: 1},
		{SizeBytes: storage.MB, RowCount: 1},
	}); err != nil {
		t.Fatal(err)
	}
	versionBefore := tbl.Version()
	filesBefore := tbl.FileCount()
	_, err := tbl.AppendFiles([]FileSpec{{SizeBytes: storage.MB, RowCount: 1}})
	if !errors.Is(err, storage.ErrQuotaExceeded) {
		t.Fatalf("expected quota error, got %v", err)
	}
	if tbl.Version() != versionBefore || tbl.FileCount() != filesBefore {
		t.Fatal("failed commit mutated table state")
	}
}

func TestPartitionsOverlap(t *testing.T) {
	cases := []struct {
		a, b []string
		want bool
	}{
		{nil, nil, false},
		{[]string{"p1"}, nil, false},
		{[]string{"p1"}, []string{"p2"}, false},
		{[]string{"p1"}, []string{"p1"}, true},
		{[]string{WholeTable}, []string{"p9"}, true},
		{[]string{"p1", "p2"}, []string{"p2", "p3"}, true},
	}
	for _, c := range cases {
		if got := partitionsOverlap(c.a, c.b); got != c.want {
			t.Fatalf("overlap(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestOperationAndModeStrings(t *testing.T) {
	if OpAppend.String() != "append" || OpRewrite.String() != "rewrite" ||
		OpOverwrite.String() != "overwrite" || OpDelete.String() != "delete" {
		t.Fatal("operation strings wrong")
	}
	if Operation(99).String() != "unknown" {
		t.Fatal("unknown operation string")
	}
	if CopyOnWrite.String() != "copy-on-write" || MergeOnRead.String() != "merge-on-read" {
		t.Fatal("mode strings wrong")
	}
}
