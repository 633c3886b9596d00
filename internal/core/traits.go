package core

import (
	"fmt"
	"math"
	"slices"
)

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

// Fixed trait slots. The act phase and the report read these three
// traits whether or not a policy computes them, so every TraitSet
// reserves them the first slots; a slot its list does not compute reads
// 0.
const (
	SlotFileCountReduction = iota
	SlotMetadataReduction
	SlotComputeCost
	fixedSlots
)

// TraitSet numbers a pipeline's trait list into the dense slots of
// Candidate.Traits, once per policy: the fixed slots first, then the
// list's other traits in list order. Numbering depends on the list
// alone, so a slot resolved against one TraitSet holds in every TraitSet
// numbered from the same list. Readers resolve the slots they need once,
// when built or once per call, and then index vectors.
type TraitSet struct {
	names  []string // by slot
	traits []Trait  // the list, in list order
	slots  []int    // traits[i]'s slot
}

// NewTraitSet numbers traits. It rejects a list naming a trait twice.
func NewTraitSet(traits []Trait) (*TraitSet, error) {
	s := &TraitSet{
		names:  []string{FileCountReduction{}.Name(), MetadataReduction{}.Name(), ComputeCost{}.Name()},
		traits: slices.Clone(traits),
		slots:  make([]int, len(traits)),
	}
	for i, t := range traits {
		name := t.Name()
		slot := s.Slot(name)
		if slot >= 0 && slices.Contains(s.slots[:i], slot) {
			return nil, fmt.Errorf("core: trait %q is listed twice", name)
		}
		if slot < 0 {
			slot = len(s.names)
			s.names = append(s.names, name)
		}
		s.slots[i] = slot
	}
	return s, nil
}

// Len returns the vector length: the number of slots.
func (s *TraitSet) Len() int { return len(s.names) }

// Slot returns the named trait's slot, or -1 when the set (nil included)
// has none. Candidate.Trait reads -1 as 0.
func (s *TraitSet) Slot(name string) int {
	if s == nil {
		return -1
	}
	return slices.Index(s.names, name)
}

// Traits returns the numbered list: the traits Orient computes.
func (s *TraitSet) Traits() []Trait {
	if s == nil {
		return nil
	}
	return s.traits
}

// Computes reports whether the list computes the named trait (a fixed
// slot has a slot either way).
func (s *TraitSet) Computes(name string) bool {
	return slices.ContainsFunc(s.Traits(), func(t Trait) bool { return t.Name() == name })
}

// Orient computes set's traits for every candidate into a fresh vector,
// all cut from one slab, so a call allocates once however large the
// pool. A candidate's earlier vector is replaced, never rewritten: a
// retained candidate re-oriented every cycle keeps no older slab alive.
func Orient(cands []*Candidate, set *TraitSet) {
	n := set.Len()
	slab := make([]float64, n*len(cands))
	for i, c := range cands {
		c.TraitSet, c.Traits = set, slab[i*n:(i+1)*n:(i+1)*n]
		for j, t := range set.traits {
			c.Traits[set.slots[j]] = t.Value(c)
		}
	}
}
