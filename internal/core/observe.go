package core

import (
	"sync/atomic"
	"time"
)

// Stats is the standardized statistics layout produced by the observe
// phase (§4.1): generic metrics every platform can provide plus custom
// metrics that may not be available everywhere.
type Stats struct {
	// Generic statistics.
	FileCount  int
	TotalBytes int64
	// SmallFiles and SmallBytes cover files below the target file size.
	SmallFiles int
	SmallBytes int64
	// FileSizes holds the candidate's file sizes (bytes), used by
	// distribution-shaped traits such as entropy.
	FileSizes []int64
	// DeltaFiles counts merge-on-read delta files awaiting merge.
	DeltaFiles int
	// UnclusteredBytes is the data volume not yet under a clustering
	// layout (feeds the §8 layout-optimization trait).
	UnclusteredBytes int64

	// Metadata-layer statistics (§2, cause iv), filled for maintenance
	// candidates by a metadata-aware observer.
	//
	// MetadataBytes is the metadata volume the candidate's action reads
	// (the table's metadata files, or just the dropped ones for expiry).
	MetadataBytes int64
	// MetadataReducible estimates the net metadata-object reduction the
	// candidate's action would achieve — the maintenance analogue of
	// SmallFiles for ΔF.
	MetadataReducible int

	// Custom statistics (§4.1: access patterns, usage metrics, ...).
	//
	// NewestFileAt is the add-time of the candidate's youngest file,
	// scoped to the candidate (a partition candidate only reflects
	// writes to that partition). Table-level ages are not observed:
	// filters read Table.Created and Table.LastWrite directly.
	NewestFileAt time.Duration
	// QuotaUtilization is the database's namespace quota in use, the
	// one observed statistic that moves without the table's version.
	QuotaUtilization float64
	// ReadRate is how often the candidate is read (usage metric, §4.1/§8);
	// zero when the connector cannot measure access patterns.
	ReadRate float64
}

// Observer extracts statistics for a candidate (the observe phase).
type Observer interface {
	Observe(c *Candidate) (Stats, error)
}

// Stamp vouches for one candidate's Stats on behalf of the caching
// observer that filled them (changefeed.CachingObserver): while Owner is
// that candidate and Version is still its table's version, the Stats are
// its work unit's current observation, and the observer serves them
// again without observing. The table's next cache invalidation revokes
// the stamp by clearing Owner. Nothing else in the pipeline reads it.
type Stamp struct {
	// Version is the table version Owner's Stats were observed at.
	Version int64
	// Owner is the one candidate whose Stats the stamp vouches for.
	Owner atomic.Pointer[Candidate]
	// Hits counts the observations served on the issuer's stamps.
	Hits *atomic.Int64
}

// StatsObserver is the default observer: it derives the standard layout
// from the candidate's file set and the connector's quota information.
type StatsObserver struct {
	// TargetFileSize classifies small files (512 MB in the paper).
	TargetFileSize int64
	// Quota supplies per-database quota utilization; nil means 0.
	Quota func(db string) float64
}

// Observe implements Observer.
func (o StatsObserver) Observe(c *Candidate) (Stats, error) {
	files := c.Files()
	s := Stats{
		FileCount: len(files),
		FileSizes: make([]int64, 0, len(files)),
	}
	for _, f := range files {
		s.TotalBytes += f.SizeBytes
		s.FileSizes = append(s.FileSizes, f.SizeBytes)
		if f.SizeBytes < o.TargetFileSize {
			s.SmallFiles++
			s.SmallBytes += f.SizeBytes
		}
		if f.IsDelta {
			s.DeltaFiles++
		}
		if !f.Clustered {
			s.UnclusteredBytes += f.SizeBytes
		}
		if f.AddedAt > s.NewestFileAt {
			s.NewestFileAt = f.AddedAt
		}
	}
	if o.Quota != nil {
		s.QuotaUtilization = o.Quota(c.Table.Database())
	}
	return s, nil
}

// Filter refines the candidate pool; filters run before observe, after
// observe, and after orient (§3.3, §4.1). Keep returns false to drop the
// candidate.
type Filter interface {
	Name() string
	Keep(c *Candidate) bool
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc struct {
	FilterName string
	Fn         func(c *Candidate) bool
}

// Name implements Filter.
func (f FilterFunc) Name() string { return f.FilterName }

// Keep implements Filter.
func (f FilterFunc) Keep(c *Candidate) bool { return f.Fn(c) }

// MinTableAge drops tables created within the window — OpenHouse skips
// recently created tables to avoid spending budget on tables that do not
// affect long-term system health (§4.1).
type MinTableAge struct {
	Min time.Duration
	Now func() time.Duration
}

// Name implements Filter.
func (MinTableAge) Name() string { return "min-table-age" }

// Keep implements Filter.
func (f MinTableAge) Keep(c *Candidate) bool {
	now := time.Duration(0)
	if f.Now != nil {
		now = f.Now()
	}
	return now-c.Table.Created() >= f.Min
}

// NotIntermediate drops tables tagged as intermediate/scratch (§4.1:
// avoid redundant effort on tables created as intermediates).
type NotIntermediate struct{}

// Name implements Filter.
func (NotIntermediate) Name() string { return "not-intermediate" }

// Keep implements Filter.
func (NotIntermediate) Keep(c *Candidate) bool {
	return c.Table.Prop("intermediate") != "true"
}

// QuietWindow drops candidates whose table saw a write within Min —
// compacting a hot table invites write-write conflicts (§4.1).
type QuietWindow struct {
	Min time.Duration
	Now func() time.Duration
}

// Name implements Filter.
func (QuietWindow) Name() string { return "quiet-window" }

// Keep implements Filter.
func (f QuietWindow) Keep(c *Candidate) bool {
	now := time.Duration(0)
	if f.Now != nil {
		now = f.Now()
	}
	return now-c.Table.LastWrite() >= f.Min
}

// CandidateQuiet is a post-observe filter implementing §3.3's example:
// skip candidates that received writes within Min, to avoid conflicts
// during compaction. It uses the candidate-scoped newest-file time, so it
// composes with fine-grained work units (FR1): a hot partition is
// deferred while the rest of its table still compacts — whereas at table
// scope the filter would park every actively written table.
type CandidateQuiet struct {
	Min time.Duration
	Now func() time.Duration
}

// Name implements Filter.
func (CandidateQuiet) Name() string { return "candidate-quiet" }

// Keep implements Filter.
func (f CandidateQuiet) Keep(c *Candidate) bool {
	now := time.Duration(0)
	if f.Now != nil {
		now = f.Now()
	}
	return now-c.Stats.NewestFileAt >= f.Min
}

// MinSmallFiles is a post-observe filter: candidates with fewer small
// files than Min are not worth a compaction task.
type MinSmallFiles struct{ Min int }

// Name implements Filter.
func (MinSmallFiles) Name() string { return "min-small-files" }

// Keep implements Filter.
func (f MinSmallFiles) Keep(c *Candidate) bool { return c.Stats.SmallFiles >= f.Min }

// MinTotalBytes is a post-observe filter skipping tables that are too
// small to matter (§3.3's example filter).
type MinTotalBytes struct{ Min int64 }

// Name implements Filter.
func (MinTotalBytes) Name() string { return "min-total-bytes" }

// Keep implements Filter.
func (f MinTotalBytes) Keep(c *Candidate) bool { return c.Stats.TotalBytes >= f.Min }

// ForAction scopes an inner filter to one action type: candidates of any
// other action pass unexamined. It lets action-specific gates (e.g.
// MinSmallFiles for data compaction) coexist in a unified maintenance
// pipeline without starving the other action families.
type ForAction struct {
	Action ActionType
	Inner  Filter
}

// Name implements Filter.
func (f ForAction) Name() string { return f.Action.String() + ":" + f.Inner.Name() }

// Keep implements Filter.
func (f ForAction) Keep(c *Candidate) bool {
	if c.Action != f.Action {
		return true
	}
	return f.Inner.Keep(c)
}

// MinMetadataReduction is a post-observe filter for maintenance
// candidates: actions that would reclaim fewer than Min metadata objects
// are not worth a task. Data-compaction candidates pass unexamined.
type MinMetadataReduction struct{ Min int }

// Name implements Filter.
func (MinMetadataReduction) Name() string { return "min-metadata-reduction" }

// Keep implements Filter.
func (f MinMetadataReduction) Keep(c *Candidate) bool {
	if c.Action == ActionDataCompaction {
		return true
	}
	return c.Stats.MetadataReducible >= f.Min
}

// MaxTraitValue is a post-orient filter: candidates whose named trait
// exceeds Max are discarded — e.g. dropping work units whose compute cost
// exceeds the allocated budget (§4.2).
type MaxTraitValue struct {
	TraitName string
	// Slot is TraitName's slot in the pipeline's TraitSet.
	Slot int
	Max  float64
}

// Name implements Filter.
func (f MaxTraitValue) Name() string { return "max-" + f.TraitName }

// Keep implements Filter.
func (f MaxTraitValue) Keep(c *Candidate) bool { return c.Trait(f.Slot) <= f.Max }

// ApplyFilters keeps the candidates every filter accepts, preserving
// order. When every candidate passes it returns cands itself; otherwise
// a new slice, so cands is never modified.
func ApplyFilters(cands []*Candidate, filters []Filter) []*Candidate {
	if len(filters) == 0 {
		return cands
	}
	i := 0
	for i < len(cands) && keepsAll(filters, cands[i]) {
		i++
	}
	if i == len(cands) {
		return cands
	}
	out := make([]*Candidate, i, len(cands)-1)
	copy(out, cands)
	for _, c := range cands[i+1:] {
		if keepsAll(filters, c) {
			out = append(out, c)
		}
	}
	return out
}

// keepsAll reports whether every filter accepts c.
func keepsAll(filters []Filter, c *Candidate) bool {
	for _, f := range filters {
		if !f.Keep(c) {
			return false
		}
	}
	return true
}
