package core

import "math"

// Direction classifies a trait as something compaction wants to maximize
// (a benefit) or minimize (a cost) (§4.2).
type Direction int

// Trait directions.
const (
	Benefit Direction = iota
	Cost
)

// Trait turns observed statistics into a decision helper for ranking
// (the orient phase, §4.2). Traits are defined independently of one
// another and can be partially combined during ranking.
type Trait interface {
	Name() string
	Direction() Direction
	Value(c *Candidate) float64
}

// FileCountReduction estimates ΔF_c, the file-count reduction compaction
// would achieve, as the number of files below the target size (§4.2):
//
//	ΔF_c = Σ_i 1[FileSize_i,c < TargetFileSize_c]
//
// Note the deliberate simplification the paper discusses in §7: at table
// scope this ignores partition boundaries and therefore overestimates,
// since compaction does not merge across partitions.
type FileCountReduction struct{}

// Name implements Trait.
func (FileCountReduction) Name() string { return "file_count_reduction" }

// Direction implements Trait.
func (FileCountReduction) Direction() Direction { return Benefit }

// Value implements Trait.
func (FileCountReduction) Value(c *Candidate) float64 {
	return float64(c.Stats.SmallFiles)
}

// RelativeFileCountReduction is ΔF_c divided by the candidate's file
// count — the "at least 10% reduction" style threshold of the paper's
// unconstrained scenario (§4.3).
type RelativeFileCountReduction struct{}

// Name implements Trait.
func (RelativeFileCountReduction) Name() string { return "relative_file_count_reduction" }

// Direction implements Trait.
func (RelativeFileCountReduction) Direction() Direction { return Benefit }

// Value implements Trait.
func (RelativeFileCountReduction) Value(c *Candidate) float64 {
	if c.Stats.FileCount == 0 {
		return 0
	}
	return float64(c.Stats.SmallFiles) / float64(c.Stats.FileCount)
}

// ComputeCost estimates the compute resources to execute candidate c
// (§4.2):
//
//	GBHr_c = ExecutorMemoryGB × DataSize_c / RewriteBytesPerHour
//
// DataSize_c is the bytes the action must rewrite: the small files for
// data compaction, the metadata log for metadata-maintenance actions —
// which is why checkpoints and expiries are orders of magnitude cheaper
// and slot easily into a shared budget.
type ComputeCost struct {
	// ExecutorMemoryGB is the memory allocated to executors for the
	// compaction task.
	ExecutorMemoryGB float64
	// RewriteBytesPerHour is the system's rewrite throughput.
	RewriteBytesPerHour float64
}

// Name implements Trait.
func (ComputeCost) Name() string { return "compute_cost_gbhr" }

// Direction implements Trait.
func (ComputeCost) Direction() Direction { return Cost }

// Value implements Trait.
func (t ComputeCost) Value(c *Candidate) float64 {
	if t.RewriteBytesPerHour <= 0 {
		return 0
	}
	bytes := c.Stats.SmallBytes
	if c.Action != ActionDataCompaction {
		bytes = c.Stats.MetadataBytes
	}
	return t.ExecutorMemoryGB * float64(bytes) / t.RewriteBytesPerHour
}

// MetadataReduction estimates ΔM_c, the net metadata-object reduction a
// maintenance action would achieve — the metadata analogue of
// FileCountReduction, ranking checkpoints, expiries, and manifest
// rewrites on the same benefit axis the paper uses for ΔF (object count
// is the scarce NameNode resource either way).
type MetadataReduction struct{}

// Name implements Trait.
func (MetadataReduction) Name() string { return "metadata_reduction" }

// Direction implements Trait.
func (MetadataReduction) Direction() Direction { return Benefit }

// Value implements Trait.
func (MetadataReduction) Value(c *Candidate) float64 {
	return float64(c.Stats.MetadataReducible)
}

// FileEntropy measures layout disorder relative to the target file size,
// modeled after the entropy trait of Netflix's AutoOptimize (§4.2, §6.3):
// the root-mean-square shortfall of undersized files, normalized by the
// target,
//
//	E_c = sqrt( Σ_{s_i < T} ((T − s_i)/T)² )
//
// It grows with both the number of small files and how far each falls
// short, and is 0 for a perfectly laid-out candidate.
type FileEntropy struct {
	TargetFileSize int64
}

// Name implements Trait.
func (FileEntropy) Name() string { return "file_entropy" }

// Direction implements Trait.
func (FileEntropy) Direction() Direction { return Benefit }

// Value implements Trait.
func (t FileEntropy) Value(c *Candidate) float64 {
	if t.TargetFileSize <= 0 {
		return 0
	}
	target := float64(t.TargetFileSize)
	var sum float64
	for _, s := range c.Stats.FileSizes {
		if s < t.TargetFileSize {
			d := (target - float64(s)) / target
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// QuotaPressure surfaces the database's namespace-quota utilization; the
// LinkedIn deployment boosts the file-count-reduction weight with it
// (§7).
type QuotaPressure struct{}

// Name implements Trait.
func (QuotaPressure) Name() string { return "quota_pressure" }

// Direction implements Trait.
func (QuotaPressure) Direction() Direction { return Benefit }

// Value implements Trait.
func (QuotaPressure) Value(c *Candidate) float64 { return c.Stats.QuotaUtilization }

// DeltaFileDebt counts merge-on-read delta files awaiting merge — a
// benefit trait for MoR-heavy workloads (§2, cause ii).
type DeltaFileDebt struct{}

// Name implements Trait.
func (DeltaFileDebt) Name() string { return "delta_file_debt" }

// Direction implements Trait.
func (DeltaFileDebt) Direction() Direction { return Benefit }

// Value implements Trait.
func (DeltaFileDebt) Value(c *Candidate) float64 { return float64(c.Stats.DeltaFiles) }

// LayoutDebt measures the data volume not yet under a clustering layout
// (Z-order/V-order style), extending compaction toward the broader layout
// optimizations of §8: co-locating related data improves compression and
// filtering efficiency, so candidates with more unclustered bytes gain
// more from a clustering rewrite. Pair it with a clustering-enabled
// compaction executor in the act phase.
type LayoutDebt struct{}

// Name implements Trait.
func (LayoutDebt) Name() string { return "layout_debt_bytes" }

// Direction implements Trait.
func (LayoutDebt) Direction() Direction { return Benefit }

// Value implements Trait.
func (LayoutDebt) Value(c *Candidate) float64 {
	return float64(c.Stats.UnclusteredBytes)
}

// AccessFrequency surfaces how often a candidate is read (the ReadRate
// statistic), implementing §8's workload-awareness direction:
// compacting hot tables buys more query-time savings per GBHr than
// compacting cold ones. Connectors that cannot measure access patterns
// leave the statistic zero and the trait reads 0.
type AccessFrequency struct{}

// Name implements Trait.
func (AccessFrequency) Name() string { return "access_frequency" }

// Direction implements Trait.
func (AccessFrequency) Direction() Direction { return Benefit }

// Value implements Trait.
func (AccessFrequency) Value(c *Candidate) float64 { return c.Stats.ReadRate }

// TraitFunc adapts a function into a Trait, the extension point for
// custom deployments (NFR1).
type TraitFunc struct {
	TraitName string
	Dir       Direction
	Fn        func(c *Candidate) float64
}

// Name implements Trait.
func (t TraitFunc) Name() string { return t.TraitName }

// Direction implements Trait.
func (t TraitFunc) Direction() Direction { return t.Dir }

// Value implements Trait.
func (t TraitFunc) Value(c *Candidate) float64 { return t.Fn(c) }

// Orient computes every trait for every candidate.
func Orient(cands []*Candidate, traits []Trait) {
	for _, c := range cands {
		if c.Traits == nil {
			c.Traits = make(map[string]float64, len(traits))
		}
		for _, t := range traits {
			c.Traits[t.Name()] = t.Value(c)
		}
	}
}
