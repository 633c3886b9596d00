// Package core implements AutoComp, the paper's primary contribution: a
// modular framework for automatic data compaction in log-structured
// tables, organized as an Observe–Orient–Decide–Act (OODA) pipeline
// (§3.3, Figure 4):
//
//	candidates → [filter] → observe(stats) → [filter] → orient(traits)
//	           → [filter] → decide(rank + select) → act(schedule + run)
//	           → feedback
//
// Every stage is an interface so deployments can mix and match strategies
// (NFR1); all algorithms are deterministic given identical inputs (NFR2);
// and the framework talks to the lake through narrow connector interfaces
// so it is not tied to one catalog or LST implementation (NFR3).
package core

import (
	"time"

	"autocomp/internal/lst"
)

// Table is the view of a log-structured table AutoComp needs. *lst.Table
// satisfies it directly; other connectors (different LSTs, synthetic
// fleets) implement it themselves (NFR3).
type Table interface {
	Database() string
	Name() string
	FullName() string
	Spec() lst.PartitionSpec
	Mode() lst.WriteMode
	Prop(key string) string
	Created() time.Duration
	LastWrite() time.Duration
	FileCount() int
	TotalBytes() int64
	Partitions() []string
	LiveFiles() []lst.DataFile
	FilesInPartition(partition string) []lst.DataFile
}

// Connector feeds lake state into the framework according to a consistent
// data model (§3.3).
type Connector interface {
	// Tables returns the onboarded tables in a deterministic order.
	Tables() []Table
	// QuotaUtilization returns Used/Total namespace quota for a
	// database, or 0 when unknown.
	QuotaUtilization(db string) float64
	// Now returns the current virtual time.
	Now() time.Duration
}

// ActionType classifies the maintenance action a candidate proposes. The
// original pipeline only knew data compaction; the maintenance subsystem
// generalizes it to a family of actions — snapshot expiry, metadata
// checkpointing, manifest rewriting — that all compete for the same
// compute budget in one ranking (the paper's cause (iv): per-commit
// metadata files are themselves small files).
type ActionType uint8

// Maintenance action types. ActionDataCompaction is the zero value so
// every pre-existing candidate path keeps its meaning unchanged.
const (
	// ActionDataCompaction rewrites small data files into target-sized
	// ones (the original AutoComp action).
	ActionDataCompaction ActionType = iota
	// ActionSnapshotExpiry drops old snapshots and the metadata objects
	// only they reference.
	ActionSnapshotExpiry
	// ActionMetadataCheckpoint collapses the metadata log (metadata.json
	// versions + manifests) into a single checkpoint object.
	ActionMetadataCheckpoint
	// ActionManifestRewrite consolidates manifests at full entry density
	// without touching the version history.
	ActionManifestRewrite
)

// String renders the action type's kebab-case name.
func (a ActionType) String() string {
	switch a {
	case ActionDataCompaction:
		return "data-compaction"
	case ActionSnapshotExpiry:
		return "snapshot-expiry"
	case ActionMetadataCheckpoint:
		return "metadata-checkpoint"
	case ActionManifestRewrite:
		return "manifest-rewrite"
	default:
		return "unknown"
	}
}

// ActionTypes lists every action type in declaration order.
func ActionTypes() []ActionType {
	return []ActionType{
		ActionDataCompaction, ActionSnapshotExpiry,
		ActionMetadataCheckpoint, ActionManifestRewrite,
	}
}

// Scope is the granularity of a compaction work unit (FR1).
type Scope uint8

// Candidate scopes (§4.1).
const (
	// ScopeTable covers all partitions of a table in one work unit.
	ScopeTable Scope = iota
	// ScopePartition covers a single partition.
	ScopePartition
	// ScopeSnapshot covers only recently added files, for fresh data
	// that needs frequent access.
	ScopeSnapshot
)

// String renders the scope's name.
func (s Scope) String() string {
	switch s {
	case ScopeTable:
		return "table"
	case ScopePartition:
		return "partition"
	case ScopeSnapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// Candidate is one proposed maintenance work unit (§4.1) — a file set to
// compact, or a table whose metadata needs maintenance — flowing through
// the pipeline and accumulating stats, traits, and a score.
type Candidate struct {
	Table Table
	// Action is the maintenance action proposed; the zero value is data
	// compaction, so plain compaction pipelines never set it.
	Action    ActionType
	Scope     Scope
	Partition string // set for ScopePartition
	// FreshSince bounds ScopeSnapshot candidates: only files added at
	// or after this virtual time belong to the work unit.
	FreshSince time.Duration

	Stats Stats
	// Stamp is set by a caching observer that filled Stats (see Stamp).
	Stamp *Stamp
	// TraitSet numbers Traits' slots; Orient sets both.
	TraitSet *TraitSet
	// Traits holds the orient phase's values, indexed by TraitSet slot.
	Traits []float64
	Score  float64
}

// ID returns a stable identifier used for deterministic tie-breaking
// (NFR2) and reporting: the table's full name, then "/partition" or
// "@fresh" by scope, then "#action" for maintenance actions.
func (c *Candidate) ID() string {
	p := c.idParts()
	return p[0] + p[1] + p[2] + p[3] + p[4]
}

// idParts returns the pieces ID concatenates, so rank ties can compare
// IDs without building them.
func (c *Candidate) idParts() [5]string {
	p := [5]string{0: c.Table.FullName()}
	switch c.Scope {
	case ScopePartition:
		p[1], p[2] = "/", c.Partition
	case ScopeSnapshot:
		p[1] = "@fresh"
	}
	if c.Action != ActionDataCompaction {
		p[3], p[4] = "#", c.Action.String()
	}
	return p
}

// Files returns the candidate's file set according to its scope.
func (c *Candidate) Files() []lst.DataFile {
	switch c.Scope {
	case ScopePartition:
		return c.Table.FilesInPartition(c.Partition)
	case ScopeSnapshot:
		var out []lst.DataFile
		for _, f := range c.Table.LiveFiles() {
			if f.AddedAt >= c.FreshSince {
				out = append(out, f)
			}
		}
		return out
	default:
		return c.Table.LiveFiles()
	}
}

// Trait returns the value in a trait slot: 0 when the vector does not
// reach it, as for Slot's -1 or a candidate not yet oriented.
func (c *Candidate) Trait(slot int) float64 {
	if uint(slot) < uint(len(c.Traits)) {
		return c.Traits[slot]
	}
	return 0
}

// Generator produces candidates from tables (the entry of the observe
// phase). Implementations must be deterministic and table-local:
// Candidates(ts) emits the same candidate set as concatenating
// Candidates({t}) over ts, and no candidate references a table outside
// its input. The sharded decide plane relies on this to generate each
// shard's table partition independently; a generator that needs the
// whole table list (cross-table or stateful pools) implements
// ShardedGenerator instead.
type Generator interface {
	Name() string
	Candidates(tables []Table) []*Candidate
}

// TableScopeGenerator emits one table-scope candidate per table — the
// strategy of LinkedIn's initial OpenHouse deployment (§6, §7).
type TableScopeGenerator struct{}

// Name implements Generator.
func (TableScopeGenerator) Name() string { return "table-scope" }

// Candidates implements Generator.
func (TableScopeGenerator) Candidates(tables []Table) []*Candidate {
	out := make([]*Candidate, 0, len(tables))
	for _, t := range tables {
		out = append(out, &Candidate{Table: t, Scope: ScopeTable})
	}
	return out
}

// PartitionScopeGenerator emits one candidate per live partition,
// enabling sub-table work units that can be processed independently
// (FR1).
type PartitionScopeGenerator struct{}

// Name implements Generator.
func (PartitionScopeGenerator) Name() string { return "partition-scope" }

// Candidates implements Generator.
func (PartitionScopeGenerator) Candidates(tables []Table) []*Candidate {
	var out []*Candidate
	for _, t := range tables {
		for _, p := range t.Partitions() {
			out = append(out, &Candidate{Table: t, Scope: ScopePartition, Partition: p})
		}
	}
	return out
}

// HybridScopeGenerator chooses partition scope for partitioned tables and
// table scope otherwise — the paper's hybrid strategy (§6).
type HybridScopeGenerator struct{}

// Name implements Generator.
func (HybridScopeGenerator) Name() string { return "hybrid-scope" }

// Candidates implements Generator.
func (HybridScopeGenerator) Candidates(tables []Table) []*Candidate {
	var out []*Candidate
	for _, t := range tables {
		if t.Spec().IsPartitioned() {
			for _, p := range t.Partitions() {
				out = append(out, &Candidate{Table: t, Scope: ScopePartition, Partition: p})
			}
		} else {
			out = append(out, &Candidate{Table: t, Scope: ScopeTable})
		}
	}
	return out
}

// SnapshotScopeGenerator emits candidates covering files added within
// Window of now, for workloads where (reasonably) fresh data needs more
// frequent optimization (§4.1).
type SnapshotScopeGenerator struct {
	Window time.Duration
	Now    func() time.Duration
}

// Name implements Generator.
func (SnapshotScopeGenerator) Name() string { return "snapshot-scope" }

// Candidates implements Generator.
func (g SnapshotScopeGenerator) Candidates(tables []Table) []*Candidate {
	now := time.Duration(0)
	if g.Now != nil {
		now = g.Now()
	}
	since := now - g.Window
	if since < 0 {
		since = 0
	}
	var out []*Candidate
	for _, t := range tables {
		out = append(out, &Candidate{Table: t, Scope: ScopeSnapshot, FreshSince: since})
	}
	return out
}

// MultiGenerator concatenates the output of several generators, letting a
// deployment consider a combination of scopes in one workflow (§4.1).
type MultiGenerator []Generator

// Name implements Generator.
func (m MultiGenerator) Name() string { return "multi" }

// Candidates implements Generator.
func (m MultiGenerator) Candidates(tables []Table) []*Candidate {
	var out []*Candidate
	for _, g := range m {
		out = append(out, g.Candidates(tables)...)
	}
	return out
}
