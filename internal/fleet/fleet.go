// Package fleet simulates a production lake fleet at LinkedIn scale (§2,
// §7): tens of thousands of OpenHouse-managed tables with heavy-tailed
// sizes, tenant quotas, daily small-file growth, monthly onboarding, and
// a scan-heavy daily workload whose cost tracks file counts.
//
// Tables are modeled in aggregate — per-size-bucket file counts and bytes
// rather than per-file records — so fleets with hundreds of millions of
// files simulate in milliseconds. Fleet tables implement core.Table and
// the package provides a core-compatible Observer and Runner, so the real
// AutoComp decision pipeline (MOOP ranking, quota-adaptive weights, top-k
// and budget selection) runs unmodified against the fleet (NFR3).
package fleet

import (
	"fmt"
	"time"

	"autocomp/internal/changefeed"
	"autocomp/internal/lst"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
	"autocomp/internal/telemetry"
)

// Size buckets: the paper's Figure 2 reports file-size distribution
// around the 128 MB block size and 512 MB target.
const (
	BucketTiny  = 0 // < 128 MB
	BucketSmall = 1 // [128 MB, 512 MB)
	BucketFull  = 2 // >= 512 MB
)

// BucketBounds returns the bucket boundaries ([128 MB, 512 MB]).
func BucketBounds() []int64 { return []int64{128 * storage.MB, 512 * storage.MB} }

// Table is one production table in aggregate form.
type Table struct {
	// full is "db.name", stored once so FullName never allocates;
	// Database and Name are its substrings on either side of dot.
	full        string
	dot         int32
	partitioned bool
	partitions  int

	counts [3]int64
	bytes  [3]int64

	created   time.Duration
	lastWrite time.Duration
	writes    int64

	// growthPerDay is the expected number of new small files per day.
	growthPerDay float64
	// avgNewFile is the mean size of newly written small files.
	avgNewFile int64
	// scanShare is the probability the daily scan workload reads this
	// table.
	scanShare float64

	// Metadata layer in aggregate (§2, cause iv): every commit writes a
	// metadata.json version and a manifest, so the metadata log grows
	// with commit count until a maintenance action trims it.
	metaJSONs   int64
	manifests   int64
	checkpoints int64
	metaBytes   int64
	// snapshots is the retained snapshot-history length; commits counts
	// total commits (the table version); versionsSinceCkpt counts
	// commits since the last checkpoint.
	snapshots         int64
	commits           int64
	versionsSinceCkpt int64

	// props carries free-form table properties (policy tags like
	// "intermediate"); see Prop.
	props map[string]string

	fleet *Fleet
	// dbFiles is the fleet's data-file count of the table's database,
	// one counter shared by all of that database's tables.
	dbFiles *int64
}

// setName stores the table's database and name as one "db.name" string
// and points the table at its database's file counter.
func (t *Table) setName(db, name string) {
	t.full, t.dot = db+"."+name, int32(len(db))
	t.dbFiles = t.fleet.dbCounter(db)
}

// addDBFiles folds a data-file count delta into the table's database
// count.
func (t *Table) addDBFiles(delta int64) { *t.dbFiles += delta }

// Database implements core.Table.
func (t *Table) Database() string { return t.full[:t.dot] }

// Name implements core.Table.
func (t *Table) Name() string { return t.full[t.dot+1:] }

// FullName implements core.Table.
func (t *Table) FullName() string { return t.full }

// Spec implements core.Table.
func (t *Table) Spec() lst.PartitionSpec {
	if t.partitioned {
		return lst.PartitionSpec{Column: "ds", Transform: lst.TransformDay}
	}
	return lst.PartitionSpec{}
}

// Mode implements core.Table.
func (t *Table) Mode() lst.WriteMode { return lst.CopyOnWrite }

// Prop implements core.Table: explicitly set policy properties first
// (SetProp), then the built-in properties derived from the aggregate
// model — "partitioned" ("true"/"false"), "partitions", and "scan_share"
// — so core's property-driven filters (e.g. NotIntermediate) are live
// against the fleet substrate, not dead code.
func (t *Table) Prop(key string) string {
	if v, ok := t.props[key]; ok {
		return v
	}
	switch key {
	case "partitioned":
		if t.partitioned {
			return "true"
		}
		return "false"
	case "partitions":
		return fmt.Sprintf("%d", t.partitions)
	case "scan_share":
		return fmt.Sprintf("%.3f", t.scanShare)
	}
	return ""
}

// SetProp tags the table with a policy property (e.g. "intermediate" =
// "true" to exclude scratch tables from maintenance, §4.1).
func (t *Table) SetProp(key, value string) {
	if t.props == nil {
		t.props = make(map[string]string)
	}
	t.props[key] = value
}

// Version returns the table's snapshot/commit version. It implements
// core.Versioned: the execution plane records it at job start and
// re-reads it at commit time to detect writer races, and the changefeed's
// stats cache keys observations by it.
func (t *Table) Version() int64 { return t.commits }

// WriterCommit applies one live writer commit of n small files at
// sub-day granularity — the writer side of the §4.4 writer-vs-compactor
// race. It advances the snapshot version, so compaction jobs in flight on
// this table will fail their optimistic commit check and retry. The
// commit publishes an event on the fleet's changefeed when one is
// attached.
func (t *Table) WriterCommit(n int64) {
	if n < 0 {
		n = 0
	}
	t.counts[BucketTiny] += n
	t.bytes[BucketTiny] += n * t.avgNewFile
	t.addDBFiles(n)
	t.lastWrite = t.fleet.clock.Now()
	t.writes++
	t.commitMetadata(1)
	mWriterCommits.Inc()
	t.fleet.publish(t, 1, n*t.avgNewFile, false)
}

// Created implements core.Table.
func (t *Table) Created() time.Duration { return t.created }

// LastWrite implements core.Table.
func (t *Table) LastWrite() time.Duration { return t.lastWrite }

// FileCount implements core.Table.
func (t *Table) FileCount() int { return int(t.counts[0] + t.counts[1] + t.counts[2]) }

// TotalBytes implements core.Table.
func (t *Table) TotalBytes() int64 { return t.bytes[0] + t.bytes[1] + t.bytes[2] }

// Partitions implements core.Table; fleet tables do not enumerate
// partitions (aggregate model) — AutoComp runs table-scoped here, as the
// production deployment did (§7).
func (t *Table) Partitions() []string { return nil }

// LiveFiles implements core.Table; per-file listings are not materialized
// in the aggregate model. Use Observer for statistics.
func (t *Table) LiveFiles() []lst.DataFile { return nil }

// FilesInPartition implements core.Table.
func (t *Table) FilesInPartition(string) []lst.DataFile { return nil }

// SmallFiles returns files below the target (the two lower buckets).
func (t *Table) SmallFiles() int64 { return t.counts[0] + t.counts[1] }

// SmallBytes returns bytes in files below the target.
func (t *Table) SmallBytes() int64 { return t.bytes[0] + t.bytes[1] }

// Modeled average metadata object sizes: lst's writers at typical
// snapshot and manifest-entry counts (exact sizes come from the shared
// lst size model where state is known).
const (
	avgMetadataJSONBytes = 6 * storage.KB
	avgManifestBytes     = 9 * storage.KB
)

// commitMetadata accretes the metadata of n commits: one metadata.json
// version and one manifest each.
func (t *Table) commitMetadata(n int64) {
	t.metaJSONs += n
	t.manifests += n
	t.metaBytes += n * (avgMetadataJSONBytes + avgManifestBytes)
	t.snapshots += n
	t.commits += n
	t.versionsSinceCkpt += n
}

// MetadataObjects returns the table's current metadata-object count.
func (t *Table) MetadataObjects() int64 { return t.metaJSONs + t.manifests + t.checkpoints }

func (t *Table) avgMetaObjectBytes() int64 {
	objects := t.MetadataObjects()
	if objects == 0 {
		return 0
	}
	return t.metaBytes / objects
}

// MetadataStats implements maintenance.MetadataTable on the aggregate
// model.
func (t *Table) MetadataStats() lst.MetadataStats {
	consolidated := lst.ConsolidatedManifestCount(t.FileCount(), lst.DefaultManifestEntriesPerFile)
	last := int64(-1)
	if t.checkpoints > 0 {
		last = t.commits - t.versionsSinceCkpt
	}
	orphans := int(t.metaJSONs - 1)
	if orphans < 0 {
		orphans = 0
	}
	return lst.MetadataStats{
		Objects:                 int(t.MetadataObjects()),
		Bytes:                   t.metaBytes,
		MetadataJSONs:           int(t.metaJSONs),
		Manifests:               int(t.manifests),
		Checkpoints:             int(t.checkpoints),
		Snapshots:               int(t.snapshots),
		LastCheckpointVersion:   last,
		VersionsSinceCheckpoint: t.versionsSinceCkpt,
		OrphanObjects:           orphans,
		ConsolidatedManifests:   consolidated,
	}
}

// ExpireEstimate implements maintenance.MetadataTable: history objects
// are spread roughly uniformly over snapshots, so expiring a fraction of
// the history reclaims that fraction of manifests and old metadata.jsons.
func (t *Table) ExpireEstimate(keepLast int) int {
	if keepLast < 1 {
		keepLast = 1
	}
	dropped := t.snapshots - int64(keepLast)
	if dropped <= 0 || t.snapshots == 0 {
		return 0
	}
	frac := float64(dropped) / float64(t.snapshots)
	return int(float64(t.manifests)*frac + float64(t.metaJSONs-1)*frac)
}

// ExpireSnapshots implements maintenance.Maintainer on the aggregate
// model: it trims the history to keepLast snapshots and reclaims the
// proportional share of manifests and old metadata.json versions.
func (t *Table) ExpireSnapshots(keepLast int) (int, error) {
	if keepLast < 1 {
		keepLast = 1
	}
	dropped := t.snapshots - int64(keepLast)
	if dropped <= 0 || t.snapshots == 0 {
		return 0, nil
	}
	frac := float64(dropped) / float64(t.snapshots)
	removedM := int64(float64(t.manifests) * frac)
	removedJ := int64(float64(t.metaJSONs-1) * frac)
	avg := t.avgMetaObjectBytes()
	t.manifests -= removedM
	t.metaJSONs -= removedJ
	t.metaBytes -= avg * (removedM + removedJ)
	if t.metaBytes < 0 {
		t.metaBytes = 0
	}
	t.snapshots = int64(keepLast)
	t.fleet.publish(t, 0, 0, true)
	return int(removedM + removedJ), nil
}

// Checkpoint implements maintenance.Maintainer: the metadata log
// collapses to the current metadata.json plus one checkpoint object
// embedding the live file listing and retained history.
func (t *Table) Checkpoint() (lst.MaintenanceResult, error) {
	var res lst.MaintenanceResult
	objects := t.MetadataObjects()
	reclaimable := objects - 1 // all but the current metadata.json
	if t.checkpoints > 0 && t.versionsSinceCkpt == 0 {
		reclaimable -= t.checkpoints // checkpoint already current
	}
	if reclaimable <= 0 {
		res.Skipped = true
		return res, nil
	}
	ckptBytes := lst.CheckpointSizeBytes(int(t.snapshots), t.FileCount())
	res.ObjectsRemoved = int(objects - 1)
	res.ObjectsAdded = 1
	res.BytesReclaimed = t.metaBytes - avgMetadataJSONBytes
	if res.BytesReclaimed < 0 {
		res.BytesReclaimed = 0
	}
	res.BytesWritten = ckptBytes
	t.metaJSONs = 1
	t.manifests = 0
	t.checkpoints = 1
	t.metaBytes = avgMetadataJSONBytes + ckptBytes
	t.versionsSinceCkpt = 0
	t.fleet.publish(t, 0, 0, true)
	return res, nil
}

// RewriteManifests implements maintenance.Maintainer: manifests repack to
// the live file entries at full density; the version history stays.
func (t *Table) RewriteManifests() (lst.MaintenanceResult, error) {
	var res lst.MaintenanceResult
	consolidated := int64(lst.ConsolidatedManifestCount(t.FileCount(), lst.DefaultManifestEntriesPerFile))
	if t.manifests <= consolidated {
		res.Skipped = true
		return res, nil
	}
	written := consolidated * lst.ManifestSizeBytes(lst.DefaultManifestEntriesPerFile)
	reclaimed := t.manifests * avgManifestBytes
	res.ObjectsRemoved = int(t.manifests)
	res.ObjectsAdded = int(consolidated)
	res.BytesReclaimed = reclaimed
	res.BytesWritten = written
	t.metaBytes += written - reclaimed
	if t.metaBytes < 0 {
		t.metaBytes = 0
	}
	t.manifests = consolidated
	t.fleet.publish(t, 0, 0, true)
	return res, nil
}

// MaxTables bounds InitialTables and TablesPerMonth in configs read from
// outside the process (tenant configs, scenario specs): New onboards
// every initial table at once and AdvanceDay a month's onboarding a
// day at a time, so an unchecked count allocates until the process
// dies. It is ten times the largest benchmark lake's 100,000 tables.
const MaxTables = 1 << 20

// Config parameterizes fleet construction.
type Config struct {
	Seed int64
	// InitialTables at simulation start.
	InitialTables int
	// Databases (tenants) the tables spread over; each gets a quota.
	Databases int
	// QuotaObjectsPerDB is each tenant's namespace quota.
	QuotaObjectsPerDB int64
	// TablesPerMonth onboarded as the deployment grows (§7, Fig 10c).
	TablesPerMonth int
	// TargetFileSize (512 MB in production).
	TargetFileSize int64
	// InitialTinyFraction is the count-fraction of files below 128 MB
	// at start (the paper reports 83%).
	InitialTinyFraction float64
	// DailyDriftProb is the per-table daily probability that a table's
	// write behaviour changes (§7: users modify their data, create new
	// tables, and adjust workflows daily, which is what makes manually
	// curated compaction lists go stale).
	DailyDriftProb float64
	// DailyWriteProb is the per-table probability of receiving writes on
	// a given day. Values outside (0, 1) — including the zero value —
	// mean every table writes every day (the original organic-growth
	// model). Sparse rates (e.g. 0.01) model fleets where most tables
	// are cold on any given day, the regime where incremental
	// observation pays off.
	DailyWriteProb float64
}

// DefaultConfig mirrors the paper's deployment shape, scaled to simulate
// quickly (the full 35K-table fleet also runs, just slower).
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		InitialTables:       2000,
		Databases:           50,
		QuotaObjectsPerDB:   4_000_000,
		TablesPerMonth:      150,
		TargetFileSize:      512 * storage.MB,
		InitialTinyFraction: 0.83,
		DailyDriftProb:      0.004,
	}
}

// Fleet is the whole simulated deployment.
//
// Randomness is split into independent per-component streams derived by
// sim.Child from the fleet seed: onboarding draws, daily write-pattern
// draws, scan-workload draws, and execution-side draws (compaction cost
// jitter, scheduler seeds, racing writers) each consume their own
// stream. The split is what keeps scenario traces stable under
// composition — running extra compactions or attaching a fault injector
// never perturbs the write-pattern draws of the days that follow.
type Fleet struct {
	cfg   Config
	clock *sim.Clock
	// rngTables draws table shapes at onboarding; rngWrites draws the
	// daily organic write pattern (drift, per-table volumes); rngScans
	// draws the daily scan workload; rngExec draws execution-side noise
	// (compaction cost jitter, scheduler pool seeds, racing writers).
	rngTables *sim.RNG
	rngWrites *sim.RNG
	rngScans  *sim.RNG
	rngExec   *sim.RNG
	tables    []*Table

	// dbFiles holds each database's data-file counter so quota
	// utilization is O(1) per lookup instead of a fleet scan — at 100k
	// tables a per-candidate fleet scan would make the observe phase
	// quadratic. Tables point at their database's counter.
	dbFiles map[string]*int64

	// feed, when attached, receives one event per table commit batch —
	// the fleet side of the incremental observation plane.
	feed *changefeed.Feed

	// openCalls accumulates modeled HDFS open() RPCs on data files
	// (Fig 11b); metaOpenCalls counts the planning-time opens of
	// metadata objects separately so the metadata-maintenance
	// experiments can attribute NameNode pressure by cause.
	openCalls     int64
	metaOpenCalls int64
	day           int

	// onboarded counts every table ever onboarded and names the next
	// one. It must be monotonic — deriving names from len(tables) would
	// reuse a live table's name after a DropTable, and every name-keyed
	// structure downstream (changefeed tracker, stats cache, retained
	// pool, leases) would conflate the twins.
	onboarded int
}

// AttachChangefeed publishes the fleet's commits (writer commits, daily
// organic growth, onboarding, and maintenance actions) to feed; nil
// detaches the current one.
func (f *Fleet) AttachChangefeed(feed *changefeed.Feed) { f.feed = feed }

// publish emits one commit event when a changefeed is attached.
func (f *Fleet) publish(t *Table, commits, bytes int64, maintenance bool) {
	if f.feed == nil {
		return
	}
	f.feed.Publish(changefeed.Event{
		Table:       t.FullName(),
		Ref:         t,
		Version:     t.commits,
		Commits:     commits,
		Bytes:       bytes,
		At:          f.clock.Now(),
		Maintenance: maintenance,
	})
}

// dbCounter returns db's data-file counter, creating it at zero.
func (f *Fleet) dbCounter(db string) *int64 {
	c := f.dbFiles[db]
	if c == nil {
		c = new(int64)
		f.dbFiles[db] = c
	}
	return c
}

// New builds a fleet at day 0.
func New(cfg Config, clock *sim.Clock) *Fleet {
	if cfg.InitialTables <= 0 {
		cfg.InitialTables = 100
	}
	if cfg.Databases <= 0 {
		cfg.Databases = 10
	}
	if cfg.TargetFileSize <= 0 {
		cfg.TargetFileSize = 512 * storage.MB
	}
	if cfg.InitialTinyFraction <= 0 {
		cfg.InitialTinyFraction = 0.83
	}
	f := &Fleet{
		cfg:       cfg,
		clock:     clock,
		rngTables: sim.Child(cfg.Seed, "fleet/tables"),
		rngWrites: sim.Child(cfg.Seed, "fleet/writes"),
		rngScans:  sim.Child(cfg.Seed, "fleet/scans"),
		rngExec:   sim.Child(cfg.Seed, "fleet/exec"),
		dbFiles:   make(map[string]*int64),
	}
	for i := 0; i < cfg.InitialTables; i++ {
		f.onboard()
	}
	return f
}

// onboard creates one table with a heavy-tailed file count and the
// configured small-file skew.
func (f *Fleet) onboard() *Table {
	i := f.onboarded
	f.onboarded++
	t := &Table{
		partitioned: f.rngTables.Bernoulli(0.6),
		created:     f.clock.Now(),
		lastWrite:   f.clock.Now(),
		fleet:       f,
	}
	t.setName(fmt.Sprintf("db%03d", i%f.cfg.Databases), fmt.Sprintf("t%06d", i))
	if t.partitioned {
		t.partitions = f.rngTables.IntBetween(10, 400)
	} else {
		t.partitions = 1
	}
	// File counts are heavy-tailed: most tables are small, a few are
	// enormous (the paper's problem tables averaged 42M files; we cap
	// the tail for scaled runs).
	files := int64(f.rngTables.Pareto(40, 0.9))
	if files > 2_000_000 {
		files = 2_000_000
	}
	tiny := int64(float64(files) * f.rngTables.Jitter(f.cfg.InitialTinyFraction, 0.1))
	if tiny > files {
		tiny = files
	}
	smallish := int64(float64(files-tiny) * 0.6)
	full := files - tiny - smallish
	t.counts = [3]int64{tiny, smallish, full}
	t.bytes = [3]int64{
		tiny * int64(f.rngTables.Jitter(24*float64(storage.MB), 0.5)),
		smallish * int64(f.rngTables.Jitter(256*float64(storage.MB), 0.3)),
		full * int64(f.rngTables.Jitter(700*float64(storage.MB), 0.2)),
	}
	t.growthPerDay = f.rngTables.Jitter(float64(files)*0.01, 0.8) + 1
	t.avgNewFile = int64(f.rngTables.Jitter(16*float64(storage.MB), 0.7))
	if t.avgNewFile < storage.MB {
		t.avgNewFile = storage.MB
	}
	t.scanShare = f.rngTables.Float64() * 0.5
	// Metadata history from the table's past life: roughly one commit per
	// 50 files, each leaving a metadata.json version and a manifest.
	t.commitMetadata(files/50 + 1)
	f.tables = append(f.tables, t)
	t.addDBFiles(files)
	mOnboarded.Inc()
	// Onboarding is the table's first appearance on the changefeed, so
	// an incremental observer discovers it without waiting for a
	// reconciling full scan.
	f.publish(t, t.commits, t.TotalBytes(), false)
	return t
}

// Tables returns the fleet's tables (live slice; do not mutate).
func (f *Fleet) Tables() []*Table { return f.tables }

// TableCount returns the deployment size.
func (f *Fleet) TableCount() int { return len(f.tables) }

// Day returns the current simulation day.
func (f *Fleet) Day() int { return f.day }

// Summary returns the fleet-wide table, file, metadata-object and
// tiny-file aggregates in one pass over the tables.
func (f *Fleet) Summary() telemetry.FleetTrace {
	s := telemetry.FleetTrace{Tables: len(f.tables)}
	var tiny int64
	for _, t := range f.tables {
		tiny += t.counts[0]
		s.Files += t.counts[0] + t.counts[1] + t.counts[2]
		s.MetaObjects += t.MetadataObjects()
	}
	if s.Files > 0 {
		s.TinyFrac = float64(tiny) / float64(s.Files)
	}
	return s
}

// TotalFiles returns the fleet-wide data-file count.
func (f *Fleet) TotalFiles() int64 {
	var n int64
	for _, t := range f.tables {
		n += t.counts[0] + t.counts[1] + t.counts[2]
	}
	return n
}

// TotalMetadataObjects returns the fleet-wide metadata-object count.
func (f *Fleet) TotalMetadataObjects() int64 {
	var n int64
	for _, t := range f.tables {
		n += t.MetadataObjects()
	}
	return n
}

// TotalObjects returns data files plus metadata objects — the NameNode's
// namespace load (§2: object count forces federation).
func (f *Fleet) TotalObjects() int64 {
	return f.TotalFiles() + f.TotalMetadataObjects()
}

// Histogram returns fleet-wide [tiny, small, full] file counts (Fig 2).
func (f *Fleet) Histogram() [3]int64 {
	var h [3]int64
	for _, t := range f.tables {
		for b := 0; b < 3; b++ {
			h[b] += t.counts[b]
		}
	}
	return h
}

// TinyFileFraction returns the count-fraction of files under 128 MB.
func (f *Fleet) TinyFileFraction() float64 {
	h := f.Histogram()
	total := h[0] + h[1] + h[2]
	if total == 0 {
		return 0
	}
	return float64(h[0]) / float64(total)
}

// SmallFileFraction returns the count-fraction of files under the target.
func (f *Fleet) SmallFileFraction() float64 {
	h := f.Histogram()
	total := h[0] + h[1] + h[2]
	if total == 0 {
		return 0
	}
	return float64(h[0]+h[1]) / float64(total)
}

// QuotaUtilization implements the connector quota lookup: files of a
// tenant over its quota. It reads the per-database counter maintained at
// every file-count mutation, so it is O(1) — the observe phase calls it
// once per candidate, and a fleet scan here would make fleet-scale
// observation quadratic.
func (f *Fleet) QuotaUtilization(db string) float64 {
	var files int64
	if c := f.dbFiles[db]; c != nil {
		files = *c
	}
	return f.quotaOf(files)
}

// quotaOf is the quota utilization of a database holding files.
func (f *Fleet) quotaOf(files int64) float64 {
	if f.cfg.QuotaObjectsPerDB <= 0 {
		return 0
	}
	u := float64(files) / float64(f.cfg.QuotaObjectsPerDB)
	if u > 1 {
		u = 1
	}
	return u
}

// AdvanceDay applies one day of organic dynamics: tables accrete small
// files from their writers (every table, or a DailyWriteProb-sized
// fraction); write behaviour drifts as users adjust workflows; new
// tables onboard at the configured monthly rate. Each table's day of
// writes publishes one batched changefeed event.
func (f *Fleet) AdvanceDay() {
	f.day++
	f.clock.Advance(24 * time.Hour)
	sparse := f.cfg.DailyWriteProb > 0 && f.cfg.DailyWriteProb < 1
	for _, t := range f.tables {
		if f.cfg.DailyDriftProb > 0 && f.rngWrites.Bernoulli(f.cfg.DailyDriftProb) {
			// The owning pipeline changed: a quiet table may become a
			// heavy (untuned) writer or a heavy one go quiet.
			t.growthPerDay = f.rngWrites.Pareto(2, 0.9)
			if t.growthPerDay > 5000 {
				t.growthPerDay = 5000
			}
		}
		if sparse && !f.rngWrites.Bernoulli(f.cfg.DailyWriteProb) {
			continue
		}
		n := int64(f.rngWrites.Jitter(t.growthPerDay, 0.5))
		if n <= 0 {
			continue
		}
		t.counts[BucketTiny] += n
		t.bytes[BucketTiny] += n * t.avgNewFile
		t.addDBFiles(n)
		t.lastWrite = f.clock.Now()
		t.writes++
		// The day's files land in batched commits (~20 files each), each
		// leaving per-commit metadata behind (cause iv).
		commits := 1 + n/20
		t.commitMetadata(commits)
		f.publish(t, commits, n*t.avgNewFile, false)
	}
	// Onboarding: TablesPerMonth spread across 30 days.
	newTables := f.cfg.TablesPerMonth / 30
	rem := f.cfg.TablesPerMonth % 30
	if rem > 0 && f.day%30 < rem {
		newTables++
	}
	for i := 0; i < newTables; i++ {
		f.onboard()
	}
	mDays.Inc()
	f.refreshGauges()
}

// ScanStats reports one day of the scan-heavy workload (Fig 11a).
type ScanStats struct {
	TablesScanned int
	FilesScanned  int64
	BytesScanned  int64
	// MetadataOpened counts the metadata objects query planning read
	// (every scan walks the table's metadata log before touching data).
	MetadataOpened int64
	// QueryTime and QueryCost are modeled: time grows with per-file
	// overhead and bytes; cost is App TBHr.
	QueryTime time.Duration
	QueryCost float64
}

// RunDailyScans models the daily scan-heavy workload: each table is read
// with its scanShare probability; reads open every live file plus the
// metadata log (planning RPCs).
func (f *Fleet) RunDailyScans() ScanStats {
	var s ScanStats
	const perFileOverhead = 30 * time.Millisecond
	const scanBytesPerSec = float64(2 * storage.GB) // fleet-wide parallel
	for _, t := range f.tables {
		if !f.rngScans.Bernoulli(t.scanShare) {
			continue
		}
		files := t.counts[0] + t.counts[1] + t.counts[2]
		bytes := t.TotalBytes()
		s.TablesScanned++
		s.FilesScanned += files
		s.BytesScanned += bytes
		s.MetadataOpened += t.MetadataObjects()
	}
	f.openCalls += s.FilesScanned
	f.metaOpenCalls += s.MetadataOpened
	// Per-file overhead is paid across ~512 parallel tasks fleet-wide.
	s.QueryTime = time.Duration(s.FilesScanned)*perFileOverhead/512 +
		time.Duration(float64(s.BytesScanned)/scanBytesPerSec*float64(time.Second))
	s.QueryCost = float64(s.FilesScanned)*0.000002 + float64(s.BytesScanned)/float64(storage.TB)*0.05
	return s
}

// OpenCalls returns cumulative modeled HDFS open() RPCs on data files.
func (f *Fleet) OpenCalls() int64 { return f.openCalls }

// MetadataOpenCalls returns cumulative planning-time open() RPCs on
// metadata objects — the NameNode pressure cause (iv) contributes.
func (f *Fleet) MetadataOpenCalls() int64 { return f.metaOpenCalls }

// DropTable removes a table from the fleet — the mid-flight table
// deletion a long-running service must survive (users drop and recreate
// tables daily, §7). The table's data files leave the tenant's
// namespace accounting and, when a changefeed is attached, a Dropped
// event tells the feed to forget it (dirty state, cached stats,
// retained candidates). It returns false when no table has that full
// name.
func (f *Fleet) DropTable(fullName string) bool {
	for i, t := range f.tables {
		if t.FullName() != fullName {
			continue
		}
		f.tables = append(f.tables[:i], f.tables[i+1:]...)
		t.addDBFiles(-(t.counts[0] + t.counts[1] + t.counts[2]))
		mDropped.Inc()
		if f.feed != nil {
			f.feed.Publish(changefeed.Event{
				Table:   fullName,
				At:      f.clock.Now(),
				Dropped: true,
			})
		}
		return true
	}
	return false
}
