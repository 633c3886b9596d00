package compaction

import (
	"testing"
	"testing/quick"

	"autocomp/internal/cluster"
	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

const mb = storage.MB

func mkFiles(sizes ...int64) []lst.DataFile {
	out := make([]lst.DataFile, len(sizes))
	for i, s := range sizes {
		out[i] = lst.DataFile{
			Path:      "/db/t/data/p/" + itoa(i) + ".parquet",
			SizeBytes: s,
			RowCount:  s / 100,
		}
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestPlanBinPackMergesSmallFiles(t *testing.T) {
	files := mkFiles(100*mb, 100*mb, 100*mb, 100*mb, 100*mb)
	plan := PlanBinPack(files, 512*mb)
	if plan.OutputFiles() != 1 {
		t.Fatalf("outputs = %d, want 1", plan.OutputFiles())
	}
	if plan.InputFiles != 5 {
		t.Fatalf("inputs = %d", plan.InputFiles)
	}
	if plan.Reduction() != 4 {
		t.Fatalf("reduction = %d", plan.Reduction())
	}
	if plan.Groups[0].Bytes != 500*mb {
		t.Fatalf("group bytes = %d", plan.Groups[0].Bytes)
	}
}

func TestPlanBinPackRespectsTarget(t *testing.T) {
	files := mkFiles(300*mb, 300*mb, 300*mb)
	plan := PlanBinPack(files, 512*mb)
	for _, g := range plan.Groups {
		if g.Bytes > 512*mb {
			t.Fatalf("group exceeds target: %d", g.Bytes)
		}
	}
}

func TestPlanBinPackDropsSingletons(t *testing.T) {
	// Two files that cannot pack together: each is its own bin, both
	// dropped as useless rewrites.
	files := mkFiles(400*mb, 400*mb)
	plan := PlanBinPack(files, 512*mb)
	if plan.OutputFiles() != 0 || plan.InputFiles != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestPlanBinPackKeepsDeltaSingletons(t *testing.T) {
	files := []lst.DataFile{{Path: "/d", SizeBytes: 400 * mb, RowCount: 1, IsDelta: true}}
	plan := PlanBinPack(files, 512*mb)
	if plan.OutputFiles() != 1 {
		t.Fatalf("delta singleton dropped: %+v", plan)
	}
}

func TestPlanBinPackDeterministic(t *testing.T) {
	files := mkFiles(100*mb, 100*mb, 200*mb, 50*mb, 150*mb, 60*mb)
	a := PlanBinPack(files, 512*mb)
	// Same inputs in a different order must produce the same plan.
	rev := make([]lst.DataFile, len(files))
	for i, f := range files {
		rev[len(files)-1-i] = f
	}
	b := PlanBinPack(rev, 512*mb)
	if a.OutputFiles() != b.OutputFiles() || a.InputFiles != b.InputFiles {
		t.Fatalf("plans differ: %+v vs %+v", a, b)
	}
	for i := range a.Groups {
		if a.Groups[i].Bytes != b.Groups[i].Bytes {
			t.Fatalf("group %d bytes differ", i)
		}
	}
}

func TestPlanBinPackZeroTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for target 0")
		}
	}()
	PlanBinPack(nil, 0)
}

// Property: bin packing conserves bytes and never exceeds the target per
// group (inputs are always < target).
func TestBinPackConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const target = 512 * int64(1<<20)
		var files []lst.DataFile
		var inBytes int64
		for i, r := range raw {
			size := (int64(r) + 1) * (mb / 4) // up to ~16GB/4 = fits under?
			size = size % (target - 1)
			if size == 0 {
				size = 1
			}
			files = append(files, lst.DataFile{Path: "/f" + itoa(i), SizeBytes: size, RowCount: 1})
			inBytes += size
		}
		plan := PlanBinPack(files, target)
		var outBytes int64
		var inFiles int
		for _, g := range plan.Groups {
			if g.Bytes > target {
				return false
			}
			var sum int64
			for _, f := range g.Files {
				sum += f.SizeBytes
			}
			if sum != g.Bytes {
				return false
			}
			outBytes += g.Bytes
			inFiles += len(g.Files)
		}
		// Bytes in kept groups equal plan.InputBytes; counts match.
		return outBytes == plan.InputBytes && inFiles == plan.InputFiles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectSmall(t *testing.T) {
	files := []lst.DataFile{
		{Path: "/a", SizeBytes: 10 * mb},
		{Path: "/b", SizeBytes: 600 * mb},
		{Path: "/c", SizeBytes: 700 * mb, IsDelta: true},
	}
	got := SelectSmall(files, 512*mb)
	if len(got) != 2 {
		t.Fatalf("selected = %d", len(got))
	}
}

// --- executor tests ---

func execSetup(t *testing.T, strict bool) (*Executor, *lst.Table, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	tbl, err := lst.NewTable(lst.TableConfig{
		Database: "db", Name: "t",
		Spec:                   lst.PartitionSpec{Column: "d", Transform: lst.TransformMonth},
		StrictRewriteConflicts: strict,
	}, fs, clock)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Executor{
		Cluster:        cluster.New(cluster.CompactionClusterConfig(), clock),
		TargetFileSize: 512 * mb,
		AppPrefix:      "compaction/",
	}
	return ex, tbl, clock
}

func loadSmallFiles(t *testing.T, tbl *lst.Table, partition string, n int, size int64) {
	t.Helper()
	specs := make([]lst.FileSpec, n)
	for i := range specs {
		specs[i] = lst.FileSpec{Partition: partition, SizeBytes: size, RowCount: size / 100}
	}
	if _, err := tbl.AppendFiles(specs); err != nil {
		t.Fatal(err)
	}
}

func TestCompactTableReducesFiles(t *testing.T) {
	ex, tbl, _ := execSetup(t, false)
	loadSmallFiles(t, tbl, "2024-01", 10, 50*mb)
	loadSmallFiles(t, tbl, "2024-02", 10, 50*mb)
	before := tbl.FileCount()
	res := ex.CompactTable(tbl)
	if !res.Succeeded() {
		t.Fatalf("result = %+v", res)
	}
	if res.FilesRemoved != 20 || res.FilesAdded != 2 {
		t.Fatalf("removed %d, added %d", res.FilesRemoved, res.FilesAdded)
	}
	if got := tbl.FileCount(); got != before-res.Reduction() {
		t.Fatalf("file count %d -> %d, reduction %d", before, got, res.Reduction())
	}
	// Bytes conserved.
	if tbl.TotalBytes() != 20*50*mb {
		t.Fatalf("bytes = %d", tbl.TotalBytes())
	}
	// Compaction never crosses partitions: one output per partition.
	if len(tbl.FilesInPartition("2024-01")) != 1 || len(tbl.FilesInPartition("2024-02")) != 1 {
		t.Fatal("partition boundary violated")
	}
}

func TestCompactPartitionOnlyTouchesPartition(t *testing.T) {
	ex, tbl, _ := execSetup(t, false)
	loadSmallFiles(t, tbl, "2024-01", 5, 50*mb)
	loadSmallFiles(t, tbl, "2024-02", 5, 50*mb)
	res := ex.CompactPartition(tbl, "2024-01")
	if !res.Succeeded() || res.FilesRemoved != 5 {
		t.Fatalf("result = %+v", res)
	}
	if got := len(tbl.FilesInPartition("2024-02")); got != 5 {
		t.Fatalf("other partition touched: %d files", got)
	}
}

func TestCompactSkipsWellSizedTable(t *testing.T) {
	ex, tbl, _ := execSetup(t, false)
	loadSmallFiles(t, tbl, "2024-01", 3, 600*mb) // all above target
	res := ex.CompactTable(tbl)
	if !res.Skipped {
		t.Fatalf("expected skip, got %+v", res)
	}
	if res.GBHr != 0 {
		t.Fatalf("skip charged GBHr %v", res.GBHr)
	}
}

func TestCompactSkipsUnmergeableSingletons(t *testing.T) {
	ex, tbl, _ := execSetup(t, false)
	loadSmallFiles(t, tbl, "2024-01", 1, 50*mb)
	res := ex.CompactTable(tbl)
	if !res.Skipped {
		t.Fatalf("lone small file should be skipped: %+v", res)
	}
}

func TestCompactChargesGBHrOnConflict(t *testing.T) {
	ex, tbl, clock := execSetup(t, true)
	loadSmallFiles(t, tbl, "2024-01", 10, 50*mb)
	loadSmallFiles(t, tbl, "2024-02", 2, 50*mb)
	// A whole-table rewrite touches every partition, so a concurrent
	// update on any partition invalidates it.
	op := ex.Start(tbl, TableScope, "")
	if _, err := tbl.OverwritePartition("2024-02", []lst.FileSpec{
		{Partition: "2024-02", SizeBytes: 100 * mb, RowCount: 100},
	}); err != nil {
		t.Fatal(err)
	}
	clock.Set(op.CommitAt())
	res := op.Finish()
	if !res.Conflict || res.ConflictCount != 1 {
		t.Fatalf("expected one group conflict, got %+v", res)
	}
	if res.GBHr <= 0 {
		t.Fatal("conflicted op should still cost GBHr")
	}
	// Partial progress: the untouched 2024-01 group landed (10 → 1),
	// the overwritten 2024-02 group was dropped.
	if res.Reduction() != 9 {
		t.Fatalf("partial reduction = %d, want 9", res.Reduction())
	}
	if got := len(tbl.FilesInPartition("2024-01")); got != 1 {
		t.Fatalf("2024-01 files = %d, want 1", got)
	}
	if ex.Cluster.TotalGBHr() <= 0 {
		t.Fatal("cluster ledger missing wasted GBHr")
	}
}

func TestPartitionRewriteSurvivesDisjointUpdate(t *testing.T) {
	ex, tbl, clock := execSetup(t, true)
	loadSmallFiles(t, tbl, "2024-01", 10, 50*mb)
	loadSmallFiles(t, tbl, "2024-02", 2, 50*mb)
	// A partition-scope rewrite only races writes to its own partition.
	op := ex.Start(tbl, PartitionScope, "2024-01")
	if _, err := tbl.OverwritePartition("2024-02", []lst.FileSpec{
		{Partition: "2024-02", SizeBytes: 100 * mb, RowCount: 100},
	}); err != nil {
		t.Fatal(err)
	}
	clock.Set(op.CommitAt())
	if res := op.Finish(); !res.Succeeded() {
		t.Fatalf("partition rewrite vs disjoint update conflicted: %+v", res)
	}
}

func TestStrictRewriteSurvivesConcurrentAppend(t *testing.T) {
	ex, tbl, clock := execSetup(t, true)
	loadSmallFiles(t, tbl, "2024-01", 10, 50*mb)
	op := ex.Start(tbl, TableScope, "")
	// Fast appends never invalidate a rewrite, even in strict mode.
	loadSmallFiles(t, tbl, "2024-02", 1, 50*mb)
	clock.Set(op.CommitAt())
	if res := op.Finish(); !res.Succeeded() {
		t.Fatalf("rewrite vs append conflicted: %+v", res)
	}
}

func TestRelaxedValidationAllowsConcurrentAppend(t *testing.T) {
	ex, tbl, clock := execSetup(t, false)
	loadSmallFiles(t, tbl, "2024-01", 10, 50*mb)
	op := ex.Start(tbl, TableScope, "")
	loadSmallFiles(t, tbl, "2024-02", 1, 50*mb)
	clock.Set(op.CommitAt())
	res := op.Finish()
	if !res.Succeeded() {
		t.Fatalf("relaxed rewrite failed: %+v", res)
	}
}

func TestOpFinishIdempotent(t *testing.T) {
	ex, tbl, _ := execSetup(t, false)
	loadSmallFiles(t, tbl, "2024-01", 4, 50*mb)
	op := ex.Start(tbl, TableScope, "")
	r1 := op.Finish()
	r2 := op.Finish()
	if !r1.Succeeded() || r2.FilesRemoved != r1.FilesRemoved {
		t.Fatalf("finish not idempotent: %+v vs %+v", r1, r2)
	}
}

func TestMergeOnReadDeltasCompacted(t *testing.T) {
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	tbl, _ := lst.NewTable(lst.TableConfig{Database: "db", Name: "mor", Mode: lst.MergeOnRead}, fs, clock)
	tbl.AppendFiles([]lst.FileSpec{{SizeBytes: 400 * mb, RowCount: 1000}})
	for i := 0; i < 5; i++ {
		tbl.AppendFiles([]lst.FileSpec{{SizeBytes: 5 * mb, RowCount: 10, IsDelta: true}})
	}
	ex := &Executor{
		Cluster:        cluster.New(cluster.CompactionClusterConfig(), clock),
		TargetFileSize: 512 * mb,
	}
	res := ex.CompactTable(tbl)
	if !res.Succeeded() {
		t.Fatalf("result = %+v", res)
	}
	if tbl.DeltaFileCount() != 0 {
		t.Fatalf("deltas remain: %d", tbl.DeltaFileCount())
	}
}

func TestThresholdDefaultsToTarget(t *testing.T) {
	ex := &Executor{TargetFileSize: 512 * mb}
	if ex.threshold() != 512*mb {
		t.Fatalf("threshold = %d", ex.threshold())
	}
	ex.SmallFileThreshold = 128 * mb
	if ex.threshold() != 128*mb {
		t.Fatalf("threshold = %d", ex.threshold())
	}
}
