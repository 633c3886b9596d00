// Package engine simulates the compute engines (Spark/Trino/Flink in the
// paper) that read and write log-structured tables. It is the layer where
// small-file proliferation turns into pain:
//
//   - every scanned file costs a NameNode open() RPC (inflating latency
//     under load, with timeouts and thundering-herd retries, §2/§7);
//   - small files decode inefficiently in columnar formats (§1), modeled
//     as an effective-bytes penalty;
//   - query planning pays per metadata object (manifest bloat, §1);
//   - untuned writers emit one file per shuffle partition, the paper's
//     primary source of small files (§2, causes i–ii);
//   - write-write conflicts trigger client-side retries that burn time
//     and compute (§2, Table 1).
package engine

import (
	"errors"
	"fmt"
	"time"

	"autocomp/internal/cluster"
	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Kind classifies queries.
type Kind int

// Query kinds.
const (
	Read Kind = iota
	Insert
	Update
	Delete
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Delete:
		return "delete"
	default:
		return "unknown"
	}
}

// IsWrite reports whether the kind mutates the table.
func (k Kind) IsWrite() bool { return k != Read }

// Config tunes the engine cost model.
type Config struct {
	// DefaultShufflePartitions is the writer parallelism used when a
	// query does not override it. End-user jobs are "neither designed
	// nor tuned for generating optimal file sizes" (§2); Spark's default
	// of 200 shuffle partitions is the canonical misconfiguration.
	DefaultShufflePartitions int
	// MaxCommitRetries bounds client-side retry attempts after
	// write-write conflicts.
	MaxCommitRetries int
	// RetryCostFactor is the fraction of the original job cost charged
	// per retry (retries reuse shuffle outputs but re-run the commit
	// critical path).
	RetryCostFactor float64
	// OpenRetries bounds retries of timed-out NameNode opens.
	OpenRetries int
	// SmallFileEncodingThreshold and SmallFilePenalty model columnar
	// inefficiency: files below the threshold cost penalty× their bytes.
	SmallFileEncodingThreshold int64
	SmallFilePenalty           float64
	// PlanningPerManifest is planning time per metadata object read.
	PlanningPerManifest time.Duration
	// ManifestEntries mirrors the LST manifest fan-out for planning.
	ManifestEntries int
	// DeltaMergePenalty is extra compute per MoR delta file merged at
	// read time.
	DeltaMergePenalty time.Duration
	// FileSizeJitterSigma is the log-normal sigma applied to written
	// file sizes.
	FileSizeJitterSigma float64
	// SplitSizeBytes is the scan split size: read parallelism follows
	// ceil(bytes/split), mirroring Spark's file-scan packing (small
	// files share splits; they do not earn extra parallelism).
	SplitSizeBytes int64
	// ClusteredSkipFraction is the fraction of a clustered file a
	// selective scan can skip via column statistics (data skipping).
	ClusteredSkipFraction float64
	// OptimizeWriteTarget, when positive, enables optimize-write (§8's
	// write-side tuning; cf. Spark/Synapse "optimize write" and Delta
	// auto-compaction): writers coalesce shuffle outputs so files land
	// near the target size instead of one file per shuffle partition.
	// It prevents NEW small files but does nothing for existing layout
	// debt — which is why compaction is still needed.
	OptimizeWriteTarget int64
}

// DefaultConfig returns the cost model used by the experiments.
func DefaultConfig() Config {
	return Config{
		DefaultShufflePartitions:   200,
		MaxCommitRetries:           3,
		RetryCostFactor:            0.5,
		OpenRetries:                3,
		SmallFileEncodingThreshold: 32 * storage.MB,
		SmallFilePenalty:           1.4,
		PlanningPerManifest:        5 * time.Millisecond,
		ManifestEntries:            1000,
		DeltaMergePenalty:          20 * time.Millisecond,
		FileSizeJitterSigma:        0.25,
		SplitSizeBytes:             128 * storage.MB,
		ClusteredSkipFraction:      0.8,
	}
}

// Query describes one operation against a table.
type Query struct {
	// App labels the cluster job.
	App string
	// Table is the target table.
	Table *lst.Table
	Kind  Kind

	// ScanFraction is the fraction of each scanned file actually read
	// (column projection + predicate pushdown); zero means 1.0.
	ScanFraction float64
	// ScanPartitions restricts the scan (partition pruning); nil scans
	// the whole table.
	ScanPartitions []string
	// SelectiveFilter marks queries with a selective predicate on the
	// table's clustering columns: clustered files can then be skipped
	// via their column statistics (§8's layout optimizations improving
	// "filtering efficiency"); unclustered files must still be read.
	SelectiveFilter bool

	// Bytes is the data volume an Insert writes.
	Bytes int64
	// TargetPartitions receives written data; empty means the table's
	// unpartitioned (or a single default) target.
	TargetPartitions []string
	// Parallelism overrides DefaultShufflePartitions for this write.
	Parallelism int
	// ModifyFraction is the fraction of targeted partition bytes an
	// Update/Delete affects.
	ModifyFraction float64
}

// Result reports one executed query.
type Result struct {
	App          string
	Kind         Kind
	Start        time.Duration
	QueueDelay   time.Duration
	ExecTime     time.Duration // includes retry re-execution time
	FilesScanned int
	BytesScanned int64
	FilesWritten int
	// Retries counts client-side write-write conflict retries.
	Retries int
	// Timeouts counts NameNode open timeouts encountered.
	Timeouts int
	Err      error
}

// End returns when the query finished.
func (r Result) End() time.Duration { return r.Start + r.QueueDelay + r.ExecTime }

// Failed reports whether the query ultimately failed.
func (r Result) Failed() bool { return r.Err != nil }

// Engine executes queries on a cluster against LST tables.
type Engine struct {
	cfg     Config
	cluster *cluster.Cluster
	fs      *storage.NameNode
	clock   *sim.Clock
	rng     *sim.RNG

	// cumulative counters
	queries          int64
	conflictRetries  int64
	failedQueries    int64
	timeoutsObserved int64
}

// New returns an engine with the given cost model.
func New(cfg Config, cl *cluster.Cluster, fs *storage.NameNode, clock *sim.Clock, rng *sim.RNG) *Engine {
	if cfg.DefaultShufflePartitions <= 0 {
		cfg.DefaultShufflePartitions = 200
	}
	if cfg.MaxCommitRetries <= 0 {
		cfg.MaxCommitRetries = 3
	}
	if cfg.RetryCostFactor <= 0 {
		cfg.RetryCostFactor = 0.5
	}
	if cfg.OpenRetries <= 0 {
		cfg.OpenRetries = 3
	}
	if cfg.ManifestEntries <= 0 {
		cfg.ManifestEntries = 1000
	}
	if cfg.SmallFilePenalty < 1 {
		cfg.SmallFilePenalty = 1
	}
	if cfg.SplitSizeBytes <= 0 {
		cfg.SplitSizeBytes = 128 * storage.MB
	}
	return &Engine{cfg: cfg, cluster: cl, fs: fs, clock: clock, rng: rng}
}

// Stats returns cumulative engine counters: total queries, client-side
// conflict retries, failed queries, and open timeouts observed.
func (e *Engine) Stats() (queries, conflictRetries, failures, timeouts int64) {
	return e.queries, e.conflictRetries, e.failedQueries, e.timeoutsObserved
}

// Exec runs a query synchronously: for writes, the commit happens
// immediately after the job with no interleaving window. Use StartWrite
// for event-driven runs where concurrent commits may conflict.
func (e *Engine) Exec(q Query) Result {
	if q.Kind == Read {
		return e.execRead(q)
	}
	pw := e.StartWrite(q)
	return pw.Finish()
}

// --- read path ---

func (e *Engine) execRead(q Query) Result {
	e.queries++
	res := Result{App: q.App, Kind: Read, Start: e.clock.Now()}
	t := q.Table

	var files []lst.DataFile
	if len(q.ScanPartitions) == 0 {
		files = t.LiveFiles()
	} else {
		for _, p := range q.ScanPartitions {
			files = append(files, t.FilesInPartition(p)...)
		}
	}
	frac := q.ScanFraction
	if frac <= 0 || frac > 1 {
		frac = 1
	}

	var scanBytes, effBytes int64
	deltas := 0
	var openExtra time.Duration
	for _, f := range files {
		fileFrac := frac
		if q.SelectiveFilter && f.Clustered && e.cfg.ClusteredSkipFraction > 0 {
			fileFrac *= 1 - e.cfg.ClusteredSkipFraction
		}
		b := int64(float64(f.SizeBytes) * fileFrac)
		scanBytes += b
		if f.SizeBytes < e.cfg.SmallFileEncodingThreshold {
			effBytes += int64(float64(b) * e.cfg.SmallFilePenalty)
		} else {
			effBytes += b
		}
		if f.IsDelta {
			deltas++
		}
		lat, timeouts, err := e.openWithRetry(f.Path)
		openExtra += lat
		res.Timeouts += timeouts
		if err != nil {
			res.Err = fmt.Errorf("engine: scanning %s: %w", f.Path, err)
			e.failedQueries++
			e.timeoutsObserved += int64(res.Timeouts)
			res.ExecTime = openExtra
			return res
		}
	}

	// Planning: read the manifest chain covering the live files.
	manifests := len(files)/e.cfg.ManifestEntries + 1
	planning := time.Duration(manifests) * e.cfg.PlanningPerManifest

	// Open latency is paid by parallel tasks.
	slots := e.cluster.TaskSlots()
	if slots < 1 {
		slots = 1
	}
	openPar := openExtra / time.Duration(slots)

	extra := planning + openPar + time.Duration(deltas)*e.cfg.DeltaMergePenalty
	// Splits follow raw on-disk bytes, not file count: a pile of small
	// files shares splits rather than earning parallelism, so both its
	// per-file overhead and its decode penalty concentrate per task
	// (the small-file tax).
	tasks := int((scanBytes + e.cfg.SplitSizeBytes - 1) / e.cfg.SplitSizeBytes)
	if tasks < 1 {
		tasks = 1
	}
	job := e.cluster.Submit(cluster.JobSpec{
		App:          q.App,
		ScanBytes:    effBytes,
		Files:        len(files),
		Tasks:        tasks,
		ExtraCompute: extra,
	})
	res.QueueDelay = job.QueueDelay
	res.ExecTime = job.Duration
	res.FilesScanned = len(files)
	res.BytesScanned = scanBytes
	e.timeoutsObserved += int64(res.Timeouts)
	return res
}

// openWithRetry opens a path, retrying on NameNode timeouts; it returns
// accumulated latency, the number of timeouts hit, and the final error.
func (e *Engine) openWithRetry(path string) (time.Duration, int, error) {
	var total time.Duration
	timeouts := 0
	for attempt := 0; ; attempt++ {
		lat, err := e.fs.Open(path)
		total += lat
		if err == nil {
			return total, timeouts, nil
		}
		if !errors.Is(err, storage.ErrTimeout) {
			return total, timeouts, err
		}
		timeouts++
		if attempt >= e.cfg.OpenRetries {
			return total, timeouts, err
		}
		// Thundering herd: the retry is itself more RPC load.
		e.fs.RecordRetry()
	}
}
