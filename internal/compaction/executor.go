package compaction

import (
	"errors"
	"time"

	"autocomp/internal/cluster"
	"autocomp/internal/lst"
)

// Scope selects what a single compaction operation covers.
type Scope int

// Scopes.
const (
	// TableScope compacts every partition of the table in one commit
	// (compaction never merges across partition boundaries, §7).
	TableScope Scope = iota
	// PartitionScope compacts a single partition in one commit.
	PartitionScope
)

// Result reports one compaction operation.
type Result struct {
	Table     string
	Partition string // "" for table scope
	Scope     Scope

	// Skipped is true when there was nothing worth rewriting.
	Skipped bool
	// Conflict is true when at least one rewrite commit failed
	// optimistic validation — the paper's "cluster-side conflict"
	// (Table 1). A rewrite commits one file group per partition
	// (Iceberg's partial progress), so a table-scope operation can
	// partially succeed: ConflictCount tallies the failed groups.
	Conflict      bool
	ConflictCount int
	Err           error

	// FilesRemoved/FilesAdded/BytesRewritten cover the committed groups
	// only (conflicted groups change nothing).
	FilesRemoved   int
	FilesAdded     int
	BytesRewritten int64

	// Duration and GBHr are the job's execution time and compute cost;
	// they are charged even when commits conflict (wasted work).
	Duration time.Duration
	GBHr     float64
}

// Reduction returns the net file-count reduction achieved.
func (r Result) Reduction() int { return r.FilesRemoved - r.FilesAdded }

// Succeeded reports whether the operation rewrote files and committed
// all of its file groups.
func (r Result) Succeeded() bool { return !r.Skipped && !r.Conflict && r.Err == nil }

// Executor runs compaction jobs on a cluster.
type Executor struct {
	// Cluster is where rewrite jobs run (the paper offloads compaction
	// to a dedicated 1+3-node cluster, §6).
	Cluster *cluster.Cluster
	// TargetFileSize is the rewrite target (512 MB in the paper).
	TargetFileSize int64
	// SmallFileThreshold selects rewrite inputs; zero means the target.
	SmallFileThreshold int64
	// AppPrefix labels cluster jobs ("compaction/" + table[/partition]).
	AppPrefix string
	// ClusterData extends compaction into layout optimization (§8,
	// "Automatic Data Layout Optimization"): outputs are written under a
	// Z-order/V-order-style clustering. The rewrite pays an extra sort
	// pass (SortCostFactor × the data volume) and in exchange produces
	// Clustered files whose column statistics enable data skipping on
	// selective scans.
	ClusterData bool
	// SortCostFactor is the extra compute of the clustering pass as a
	// fraction of the rewrite volume (default 0.5 when ClusterData).
	SortCostFactor float64
}

func (e *Executor) threshold() int64 {
	if e.SmallFileThreshold > 0 {
		return e.SmallFileThreshold
	}
	return e.TargetFileSize
}

// Op is an in-flight compaction: the rewrite transaction is open and the
// job has been submitted; Finish commits at the job's end time. Splitting
// start and finish lets a discrete-event simulation interleave workload
// commits with the compaction window, producing exactly the write-write
// conflicts the paper measures in Table 1.
type Op struct {
	exec      *Executor
	table     *lst.Table
	groups    []partGroup
	result    Result
	job       cluster.JobRecord
	hasWork   bool
	committed bool
}

// partGroup is one partition's staged rewrite, committed independently
// (Iceberg partial-progress file groups). The input files are fixed at
// planning time; the commit transaction is built fresh at commit time
// (refresh-and-retry semantics), so a group fails exactly when its staged
// files went stale — removed by a concurrent writer during the rewrite
// window, the paper's "conflicts about stale metadata" (§6.2).
type partGroup struct {
	partition string
	removes   []lst.DataFile
	adds      []lst.FileSpec
	inputs    int
	outputs   int
	bytes     int64
}

// CommitAt returns the virtual time at which the rewrite job completes
// and its commit is attempted.
func (o *Op) CommitAt() time.Duration { return o.job.End() }

// Result returns the operation's result so far; before Finish it reflects
// planning (and Skipped) state only.
func (o *Op) Result() Result { return o.result }

// Start plans and launches one compaction operation. For PartitionScope,
// partition names the target partition; for TableScope it is ignored.
func (e *Executor) Start(t *lst.Table, scope Scope, partition string) *Op {
	var partitions []string
	if scope == PartitionScope {
		partitions = []string{partition}
	} else {
		partition = ""
		partitions = t.Partitions()
	}
	byPart := make(map[string][]lst.DataFile, len(partitions))
	for _, part := range partitions {
		byPart[part] = t.FilesInPartition(part)
	}
	return e.startPlan(t, scope, partition, partitions, byPart)
}

// StartFiles plans and launches a compaction restricted to the given file
// set (snapshot-scope work units): files are grouped by partition and
// bin-packed within each, in a single rewrite commit.
func (e *Executor) StartFiles(t *lst.Table, files []lst.DataFile) *Op {
	byPart := map[string][]lst.DataFile{}
	var partitions []string
	for _, f := range files {
		if _, ok := byPart[f.Partition]; !ok {
			partitions = append(partitions, f.Partition)
		}
		byPart[f.Partition] = append(byPart[f.Partition], f)
	}
	return e.startPlan(t, TableScope, "", partitions, byPart)
}

// startPlan builds the rewrite transaction for the per-partition file
// sets and submits the job; compaction never crosses partitions.
func (e *Executor) startPlan(t *lst.Table, scope Scope, partition string, partitions []string, byPart map[string][]lst.DataFile) *Op {
	op := &Op{
		exec:  e,
		table: t,
		result: Result{
			Table:     t.FullName(),
			Partition: partition,
			Scope:     scope,
		},
	}

	var totalInputs, totalOutputs int
	var totalBytes int64
	for _, part := range partitions {
		small := SelectSmall(byPart[part], e.threshold())
		plan := PlanBinPack(small, e.TargetFileSize)
		if plan.InputFiles == 0 || plan.InputFiles <= plan.OutputFiles() {
			continue
		}
		pg := partGroup{partition: part}
		for _, g := range plan.Groups {
			pg.removes = append(pg.removes, g.Files...)
			pg.adds = append(pg.adds, lst.FileSpec{
				Partition: part,
				SizeBytes: g.Bytes,
				RowCount:  g.Rows,
				Clustered: e.ClusterData,
			})
			pg.outputs++
		}
		pg.inputs = plan.InputFiles
		pg.bytes = plan.InputBytes
		op.groups = append(op.groups, pg)
		totalInputs += plan.InputFiles
		totalOutputs += pg.outputs
		totalBytes += plan.InputBytes
	}

	if totalInputs == 0 || totalInputs <= totalOutputs {
		op.result.Skipped = true
		return op
	}
	op.hasWork = true
	op.result.FilesRemoved = totalInputs
	op.result.FilesAdded = totalOutputs
	op.result.BytesRewritten = totalBytes

	app := e.AppPrefix + t.FullName()
	if scope == PartitionScope && partition != "" {
		app += "/" + partition
	}
	// Rewrites parallelize across input files (each task reads a file
	// group and feeds the packed writers). Clustering adds a sort pass
	// over the rewrite volume.
	scan := totalBytes
	if e.ClusterData {
		factor := e.SortCostFactor
		if factor <= 0 {
			factor = 0.5
		}
		scan += int64(float64(totalBytes) * factor)
	}
	op.job = e.Cluster.Submit(cluster.JobSpec{
		App:        app,
		ScanBytes:  scan,
		WriteBytes: totalBytes,
		Files:      totalInputs,
		Tasks:      totalInputs,
	})
	op.result.Duration = op.job.Duration
	op.result.GBHr = op.job.GBHr
	return op
}

// Finish attempts the rewrite commits, one file group per partition
// (partial progress). Call it at (or after) CommitAt in simulated time.
// Groups whose validation fails report cluster-side conflicts and change
// nothing; the rest land. The job's GBHr remains charged in full even for
// conflicted groups (wasted compute, §2).
func (o *Op) Finish() Result {
	if o.committed || !o.hasWork {
		o.result.Skipped = o.result.Skipped || !o.hasWork
		return o.result
	}
	o.committed = true
	o.result.FilesRemoved = 0
	o.result.FilesAdded = 0
	o.result.BytesRewritten = 0
	for _, pg := range o.groups {
		tx := o.table.NewTransaction(lst.OpRewrite)
		for _, f := range pg.removes {
			tx.Remove(f.Path, f.Partition)
		}
		for _, spec := range pg.adds {
			tx.Add(spec)
		}
		if _, err := tx.Commit(); err != nil {
			if errors.Is(err, lst.ErrCommitConflict) {
				o.result.Conflict = true
				o.result.ConflictCount++
			} else {
				o.result.Err = err
			}
			continue
		}
		o.result.FilesRemoved += pg.inputs
		o.result.FilesAdded += pg.outputs
		o.result.BytesRewritten += pg.bytes
	}
	return o.result
}

// Compact runs Start and Finish back to back: a compaction with no
// concurrent writers interleaved (no conflict window).
func (e *Executor) Compact(t *lst.Table, scope Scope, partition string) Result {
	op := e.Start(t, scope, partition)
	return op.Finish()
}

// CompactTable compacts the whole table in one commit.
func (e *Executor) CompactTable(t *lst.Table) Result {
	return e.Compact(t, TableScope, "")
}

// CompactPartition compacts one partition in one commit.
func (e *Executor) CompactPartition(t *lst.Table, partition string) Result {
	return e.Compact(t, PartitionScope, partition)
}
