package lst

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// TableConfig describes a table at creation time.
type TableConfig struct {
	Database string
	Name     string
	Schema   Schema
	Spec     PartitionSpec
	Mode     WriteMode
	// StrictRewriteConflicts reproduces the Apache Iceberg v1.2.0
	// behaviour the paper observed (§4.4): a rewrite (compaction) commit
	// fails validation whenever any other commit landed after its base
	// snapshot, even when the two touch disjoint partitions. When false,
	// rewrites only conflict on genuinely overlapping changes.
	StrictRewriteConflicts bool
	// ManifestEntriesPerFile controls how many file entries one manifest
	// holds; each commit writes ceil(changes/entries) manifest objects.
	ManifestEntriesPerFile int
	// Props carries free-form table properties (e.g. "intermediate").
	Props map[string]string
}

// Table is a log-structured table: a live file set plus an append-only
// snapshot history, backed by a simulated file system for object
// accounting. All methods are safe for concurrent use.
type Table struct {
	mu sync.Mutex

	cfg   TableConfig
	fs    *storage.NameNode
	clock *sim.Clock

	version    int64
	snapshots  []*Snapshot
	files      map[string]*DataFile
	nextFileID int64
	nextSnapID int64

	created    time.Duration
	lastWrite  time.Duration
	writeCount int64

	// metaObjects tracks the metadata files (metadata.json versions,
	// manifests, checkpoints) currently held in storage; ExpireSnapshots,
	// Checkpoint, and RewriteManifests trim it.
	metaObjects []metaObject
	// lastCheckpointVersion is the table version the newest checkpoint
	// covers, or -1 when the table has never been checkpointed.
	lastCheckpointVersion int64

	// onCommit, when set, observes every successful state change
	// (transaction commits and maintenance operations).
	onCommit CommitHook
	// actionSink, when set, receives every state change as a durable
	// commit-log Action, synchronously under the table lock.
	actionSink ActionSink
}

// CommitEvent describes one committed state change on a table, delivered
// to the table's commit hook outside the table lock.
type CommitEvent struct {
	// Table is the changed table.
	Table *Table
	// Snapshot is the committed snapshot for write transactions; nil for
	// maintenance operations (expiry, checkpoint, manifest rewrite),
	// which mutate the metadata layer without adding a snapshot.
	Snapshot *Snapshot
	// Maintenance marks metadata-maintenance operations.
	Maintenance bool
}

// CommitHook observes successful commits and maintenance operations. It
// runs on the committing goroutine, after the table lock is released, so
// it may call back into the table's accessors; it must not block.
type CommitHook func(CommitEvent)

// SetCommitHook installs h as the table's commit hook (nil detaches).
// The changefeed observation plane attaches here.
func (t *Table) SetCommitHook(h CommitHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onCommit = h
}

// commitHook returns the installed hook.
func (t *Table) commitHook() CommitHook {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.onCommit
}

// emitMaintenance publishes a maintenance CommitEvent for the table.
// Callers must not hold t.mu.
func (t *Table) emitMaintenance() {
	if h := t.commitHook(); h != nil {
		h(CommitEvent{Table: t, Maintenance: true})
	}
}

// metaKind classifies a metadata object.
type metaKind int

const (
	metaJSON       metaKind = iota // versioned metadata.json
	metaManifest                   // per-commit manifest
	metaCheckpoint                 // checkpoint object (collapsed log)
)

// metaObject is one metadata file tracked by the table.
type metaObject struct {
	path string
	kind metaKind
	// ref is the metadata version for metaJSON and metaCheckpoint
	// objects, and the owning snapshot ID for metaManifest objects.
	// Consolidated manifests written by RewriteManifests carry
	// liveManifest: they describe the live file set, not one commit's
	// changes, so snapshot expiry must never reclaim them.
	ref  int64
	size int64
}

// liveManifest is the ref sentinel for consolidated manifests that
// describe live state rather than a single snapshot's history.
const liveManifest int64 = -1

// NewTable creates a table and writes its initial metadata object, as
// the replay of a create action stamped with the clock's time.
func NewTable(cfg TableConfig, fs *storage.NameNode, clock *sim.Clock) (*Table, error) {
	return ReplayCreate(Action{Kind: ActionCreate, At: clock.Now(), Config: &cfg}, fs, clock)
}

// newTable validates cfg and returns an empty, never-checkpointed table
// holding no storage objects yet.
func newTable(cfg TableConfig, fs *storage.NameNode, clock *sim.Clock) (*Table, error) {
	if cfg.Database == "" || cfg.Name == "" {
		return nil, fmt.Errorf("lst: table requires database and name")
	}
	if cfg.ManifestEntriesPerFile <= 0 {
		cfg.ManifestEntriesPerFile = DefaultManifestEntriesPerFile
	}
	return &Table{
		cfg:                   cfg,
		fs:                    fs,
		clock:                 clock,
		files:                 make(map[string]*DataFile),
		lastCheckpointVersion: -1,
	}, nil
}

// Identity and metadata accessors.

// Database returns the owning database name.
func (t *Table) Database() string { return t.cfg.Database }

// Name returns the table name.
func (t *Table) Name() string { return t.cfg.Name }

// FullName returns database.table.
func (t *Table) FullName() string { return t.cfg.Database + "." + t.cfg.Name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.cfg.Schema }

// Spec returns the partition spec.
func (t *Table) Spec() PartitionSpec { return t.cfg.Spec }

// Mode returns the write mode (CoW or MoR).
func (t *Table) Mode() WriteMode { return t.cfg.Mode }

// Prop returns a table property.
func (t *Table) Prop(key string) string { return t.cfg.Props[key] }

// Created returns the virtual creation time.
func (t *Table) Created() time.Duration { return t.created }

// LastWrite returns the virtual time of the last committed write.
func (t *Table) LastWrite() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastWrite
}

// WriteCount returns the number of committed transactions.
func (t *Table) WriteCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writeCount
}

// Version returns the current metadata version (number of commits).
func (t *Table) Version() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Snapshots returns a copy of the snapshot history.
func (t *Table) Snapshots() []Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Snapshot, len(t.snapshots))
	for i, s := range t.snapshots {
		out[i] = *s
	}
	return out
}

// Statistics used by the observe phase.

// FileCount returns the number of live data files (including delta files).
func (t *Table) FileCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.files)
}

// DeltaFileCount returns the number of live MoR delta files.
func (t *Table) DeltaFileCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, f := range t.files {
		if f.IsDelta {
			n++
		}
	}
	return n
}

// TotalBytes returns the live data bytes.
func (t *Table) TotalBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b int64
	for _, f := range t.files {
		b += f.SizeBytes
	}
	return b
}

// SmallFileCount returns how many live files are smaller than threshold.
func (t *Table) SmallFileCount(threshold int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, f := range t.files {
		if f.SizeBytes < threshold {
			n++
		}
	}
	return n
}

// LiveFiles returns a copy of the live file set sorted by path.
func (t *Table) LiveFiles() []DataFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]DataFile, 0, len(t.files))
	for _, f := range t.files {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Partitions returns the distinct partitions with live files, sorted.
func (t *Table) Partitions() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]struct{}{}
	for _, f := range t.files {
		seen[f.Partition] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// FilesInPartition returns the live files of one partition, sorted by path.
func (t *Table) FilesInPartition(partition string) []DataFile {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []DataFile
	for _, f := range t.files {
		if f.Partition == partition {
			out = append(out, *f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// SizeHistogram buckets live file sizes by ascending bounds, with a final
// overflow bucket.
func (t *Table) SizeHistogram(bounds []int64) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make([]int64, len(bounds)+1)
	for _, f := range t.files {
		placed := false
		for i, b := range bounds {
			if f.SizeBytes < b {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(bounds)]++
		}
	}
	return counts
}

// MetadataObjectCount returns the number of metadata files (metadata.json
// versions, manifests, and checkpoints) held in storage — the paper's
// cause (iv) of small-file proliferation.
func (t *Table) MetadataObjectCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.metaObjects)
}

// MetadataStats is the metadata-layer health summary the maintenance
// subsystem observes: how large the metadata log has grown and how much a
// checkpoint or manifest rewrite could reclaim.
type MetadataStats struct {
	// Objects and Bytes cover every metadata file in storage.
	Objects int
	Bytes   int64
	// MetadataJSONs, Manifests, and Checkpoints break Objects down by
	// kind.
	MetadataJSONs int
	Manifests     int
	Checkpoints   int
	// Snapshots is the retained snapshot-history length.
	Snapshots int
	// LastCheckpointVersion is the metadata version the newest checkpoint
	// covers (-1 when never checkpointed); VersionsSinceCheckpoint counts
	// commits since then.
	LastCheckpointVersion   int64
	VersionsSinceCheckpoint int64
	// OrphanObjects counts metadata files no current reader needs: old
	// metadata.json versions and superseded checkpoints. They are exactly
	// what Checkpoint reclaims beyond manifest consolidation.
	OrphanObjects int
	// ConsolidatedManifests is how many manifests a RewriteManifests
	// would leave (the live file entries repacked at full density).
	ConsolidatedManifests int
}

// MetadataStats returns the current metadata-layer summary.
func (t *Table) MetadataStats() MetadataStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := MetadataStats{
		Objects:               len(t.metaObjects),
		Snapshots:             len(t.snapshots),
		LastCheckpointVersion: t.lastCheckpointVersion,
	}
	for _, m := range t.metaObjects {
		s.Bytes += m.size
		switch m.kind {
		case metaJSON:
			s.MetadataJSONs++
			if m.ref < t.version {
				s.OrphanObjects++
			}
		case metaManifest:
			s.Manifests++
		case metaCheckpoint:
			s.Checkpoints++
			if m.ref < t.lastCheckpointVersion {
				s.OrphanObjects++
			}
		}
	}
	if t.lastCheckpointVersion >= 0 {
		s.VersionsSinceCheckpoint = t.version - t.lastCheckpointVersion
	} else {
		s.VersionsSinceCheckpoint = t.version
	}
	s.ConsolidatedManifests = ConsolidatedManifestCount(len(t.files), t.cfg.ManifestEntriesPerFile)
	return s
}

// Metadata object size model. Exported so aggregate simulators (the
// fleet package) price exactly the bytes these writers produce.

// DefaultManifestEntriesPerFile is the manifest density used when
// TableConfig.ManifestEntriesPerFile is unset.
const DefaultManifestEntriesPerFile = 1000

// MetadataJSONSizeBytes models one metadata.json version for a table
// with the given snapshot-history length.
func MetadataJSONSizeBytes(snapshots int) int64 {
	return 4*storage.KB + 256*int64(snapshots)
}

// ManifestSizeBytes models a manifest holding the given file entries.
func ManifestSizeBytes(entries int) int64 {
	return 8*storage.KB + 128*int64(entries)
}

// CheckpointSizeBytes models a checkpoint object embedding the live file
// listing and the retained snapshot history.
func CheckpointSizeBytes(snapshots, files int) int64 {
	return 4*storage.KB + 256*int64(snapshots) + 128*int64(files)
}

// ConsolidatedManifestCount returns how many manifests hold the given
// live files at full per-manifest entry density.
func ConsolidatedManifestCount(files, entriesPerManifest int) int {
	if files <= 0 {
		return 0
	}
	if entriesPerManifest <= 0 {
		entriesPerManifest = DefaultManifestEntriesPerFile
	}
	return (files + entriesPerManifest - 1) / entriesPerManifest
}

// path helpers

// dataPath is the path of data file id in partition.
func (t *Table) dataPath(partition string, id int64) string {
	if partition == "" {
		partition = "unpartitioned"
	}
	return fmt.Sprintf("/%s/%s/data/%s/%08d.parquet", t.cfg.Database, t.cfg.Name, partition, id)
}

// writeMetadataLocked writes the versioned metadata.json object.
func (t *Table) writeMetadataLocked(version int64) error {
	path := fmt.Sprintf("/%s/%s/metadata/v%d.metadata.json", t.cfg.Database, t.cfg.Name, version)
	size := MetadataJSONSizeBytes(len(t.snapshots))
	if err := t.fs.Create(path, size); err != nil {
		return err
	}
	t.metaObjects = append(t.metaObjects, metaObject{path: path, kind: metaJSON, ref: version, size: size})
	return nil
}

// writeManifestsLocked writes manifest objects for a commit of n changed
// file entries and returns how many manifests were written.
func (t *Table) writeManifestsLocked(snapID int64, changed int) (int, error) {
	if changed == 0 {
		return 0, nil
	}
	per := t.cfg.ManifestEntriesPerFile
	count := (changed + per - 1) / per
	for i := 0; i < count; i++ {
		entries := per
		if i == count-1 {
			entries = changed - per*(count-1)
		}
		path := fmt.Sprintf("/%s/%s/metadata/manifest-%d-%d.avro", t.cfg.Database, t.cfg.Name, snapID, i)
		size := ManifestSizeBytes(entries)
		if err := t.fs.Create(path, size); err != nil {
			return i, err
		}
		t.metaObjects = append(t.metaObjects, metaObject{path: path, kind: metaManifest, ref: snapID, size: size})
	}
	return count, nil
}

// ExpireSnapshots drops all but the most recent keepLast snapshots and
// deletes the metadata objects (old metadata.json versions and manifests
// of dropped snapshots) from storage. It returns the number of storage
// objects deleted. Data files are deleted eagerly at commit time in this
// simulator (orphan cleanup is assumed immediate), so
// expiration only reclaims metadata. Checkpoint objects survive: they
// describe live state, not history. An expiry that reclaimed anything
// publishes a maintenance CommitEvent to the table's commit hook.
func (t *Table) ExpireSnapshots(keepLast int) (int, error) {
	n, err := t.expireSnapshots(keepLast)
	if err == nil && n > 0 {
		t.emitMaintenance()
	}
	return n, err
}

func (t *Table) expireSnapshots(keepLast int) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	drop, expired := t.expiryLocked(keepLast)
	if drop == 0 {
		return 0, nil
	}
	t.snapshots = append([]*Snapshot{}, t.snapshots[drop:]...)
	deleted := 0
	kept := t.metaObjects[:0]
	for _, m := range t.metaObjects {
		if expired(m) {
			if err := t.fs.Delete(m.path); err == nil {
				deleted++
				continue
			}
		}
		kept = append(kept, m)
	}
	t.metaObjects = kept
	if deleted == 0 {
		return 0, nil
	}
	return deleted, t.logLocked(Action{Kind: ActionExpire, Version: t.version, At: t.clock.Now(), KeepLast: max(keepLast, 1)})
}

// ExpireEstimate returns how many metadata objects ExpireSnapshots
// (keepLast) would delete right now, without mutating anything.
func (t *Table) ExpireEstimate(keepLast int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	if drop, expired := t.expiryLocked(keepLast); drop > 0 {
		for _, m := range t.metaObjects {
			if expired(m) {
				n++
			}
		}
	}
	return n
}

// expiryLocked selects what expiring to the newest keepLast (at least
// one) snapshots reclaims: how many of the oldest snapshots go, and
// which metadata objects go with them — their manifests and the
// metadata.json versions older than the oldest retained snapshot.
// Must hold t.mu.
func (t *Table) expiryLocked(keepLast int) (int, func(metaObject) bool) {
	drop := len(t.snapshots) - max(keepLast, 1)
	if drop <= 0 {
		return 0, nil
	}
	droppedIDs := make(map[int64]struct{}, drop)
	for _, s := range t.snapshots[:drop] {
		droppedIDs[s.ID] = struct{}{}
	}
	oldestRetained := t.snapshots[drop].Sequence
	return drop, func(m metaObject) bool {
		switch m.kind {
		case metaManifest:
			_, ok := droppedIDs[m.ref]
			return ok
		case metaJSON:
			return m.ref < oldestRetained
		}
		return false
	}
}

// MaintenanceResult reports one metadata-maintenance operation
// (Checkpoint or RewriteManifests): how many storage objects and bytes it
// removed and created.
type MaintenanceResult struct {
	ObjectsRemoved int
	ObjectsAdded   int
	BytesReclaimed int64
	BytesWritten   int64
	// Skipped is true when the operation had nothing worth doing.
	Skipped bool
}

// Reduction returns the net metadata-object reduction achieved.
func (r MaintenanceResult) Reduction() int { return r.ObjectsRemoved - r.ObjectsAdded }

// Checkpoint collapses the metadata log — every metadata.json version,
// manifest, and prior checkpoint — into a single checkpoint object that
// embeds the live file listing and the retained snapshot history, in the
// style of delta-rs log compaction / Iceberg metadata rewrite. Only the
// current metadata.json survives alongside the checkpoint (it is the
// commit anchor new writers validate against), so a freshly checkpointed
// table holds exactly two metadata objects. Subsequent commits append new
// metadata.json versions and manifests after the checkpoint as usual. A
// checkpoint that collapsed anything publishes a maintenance CommitEvent
// to the table's commit hook.
func (t *Table) Checkpoint() (MaintenanceResult, error) {
	res, err := t.checkpoint()
	if err == nil && !res.Skipped {
		t.emitMaintenance()
	}
	return res, err
}

func (t *Table) checkpoint() (MaintenanceResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var res MaintenanceResult
	// Nothing to collapse when the log is already just the current
	// metadata.json (plus an up-to-date checkpoint).
	reclaimable := 0
	for _, m := range t.metaObjects {
		if m.kind == metaJSON && m.ref == t.version {
			continue
		}
		if m.kind == metaCheckpoint && m.ref == t.version {
			continue
		}
		reclaimable++
	}
	if reclaimable == 0 {
		res.Skipped = true
		return res, nil
	}

	path := fmt.Sprintf("/%s/%s/metadata/checkpoint-v%d.json", t.cfg.Database, t.cfg.Name, t.version)
	size := CheckpointSizeBytes(len(t.snapshots), len(t.files))
	if err := t.fs.Create(path, size); err != nil {
		return res, err
	}
	res.ObjectsAdded = 1
	res.BytesWritten = size

	kept := t.metaObjects[:0]
	for _, m := range t.metaObjects {
		if m.kind == metaJSON && m.ref == t.version {
			kept = append(kept, m)
			continue
		}
		if err := t.fs.Delete(m.path); err != nil {
			// Keep the record consistent with storage on failure.
			kept = append(kept, m)
			continue
		}
		res.ObjectsRemoved++
		res.BytesReclaimed += m.size
	}
	t.metaObjects = append(kept, metaObject{path: path, kind: metaCheckpoint, ref: t.version, size: size})
	t.lastCheckpointVersion = t.version
	return res, t.logLocked(Action{Kind: ActionCheckpoint, Version: t.version, At: t.clock.Now()})
}

// RewriteManifests consolidates the table's manifests into the minimum
// number that holds the live file entries at full density (Iceberg's
// rewrite_manifests action). Unlike Checkpoint it leaves the metadata.json
// version history untouched, so it is the cheaper action when only
// manifest count — not log length — is the problem. A rewrite that
// consolidated anything publishes a maintenance CommitEvent to the
// table's commit hook.
func (t *Table) RewriteManifests() (MaintenanceResult, error) {
	res, err := t.rewriteManifests()
	if err == nil && !res.Skipped {
		t.emitMaintenance()
	}
	return res, err
}

func (t *Table) rewriteManifests() (MaintenanceResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var res MaintenanceResult
	manifests := 0
	for _, m := range t.metaObjects {
		if m.kind == metaManifest {
			manifests++
		}
	}
	per := t.cfg.ManifestEntriesPerFile
	consolidated := ConsolidatedManifestCount(len(t.files), per)
	if manifests <= consolidated {
		res.Skipped = true
		return res, nil
	}

	// Write the consolidated manifests first, then drop the old ones.
	added := make([]metaObject, 0, consolidated)
	remaining := len(t.files)
	for i := 0; i < consolidated; i++ {
		entries := per
		if entries > remaining {
			entries = remaining
		}
		remaining -= entries
		path := fmt.Sprintf("/%s/%s/metadata/manifest-r%d-%d.avro", t.cfg.Database, t.cfg.Name, t.version, i)
		size := ManifestSizeBytes(entries)
		if err := t.fs.Create(path, size); err != nil {
			return res, err
		}
		added = append(added, metaObject{path: path, kind: metaManifest, ref: liveManifest, size: size})
		res.ObjectsAdded++
		res.BytesWritten += size
	}
	kept := t.metaObjects[:0]
	for _, m := range t.metaObjects {
		if m.kind != metaManifest {
			kept = append(kept, m)
			continue
		}
		if err := t.fs.Delete(m.path); err != nil {
			kept = append(kept, m)
			continue
		}
		res.ObjectsRemoved++
		res.BytesReclaimed += m.size
	}
	t.metaObjects = append(kept, added...)
	return res, t.logLocked(Action{Kind: ActionRewriteManifests, Version: t.version, At: t.clock.Now()})
}
