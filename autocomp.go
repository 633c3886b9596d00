// Package autocomp is the public facade of the AutoComp framework: a
// scalable system for automatic data compaction in log-structured tables
// (LSTs), reproducing "AutoComp: Automated Data Compaction for
// Log-Structured Tables in Data Lakes" (SIGMOD 2025).
//
// AutoComp organizes compaction as an Observe–Orient–Decide–Act pipeline:
// candidates (tables, partitions, or fresh-snapshot file sets) are
// observed into standardized statistics, oriented into decision traits
// (estimated file-count reduction ΔF, compute cost GBHr, file entropy,
// quota pressure), ranked by a threshold policy or a scalarized
// multi-objective function, selected by fixed k or a compute budget, and
// executed under a conflict-aware schedule. Every stage is pluggable.
//
// The quickest way in:
//
//	svc, err := autocomp.New(autocomp.Options{
//		Catalog:  cp,       // *catalog.ControlPlane (OpenHouse-style)
//		Cluster:  compCl,   // *cluster.Cluster for rewrite jobs
//		TargetFileSize: 512 << 20,
//		TopK:     10,
//	})
//	report, err := svc.RunOnce()
//
// New compiles the options into a policy spec against the catalog
// substrate, the construction every AutoComp pipeline goes through. This
// package only re-exports the common pieces.
package autocomp

import (
	"errors"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/policy"
)

// Re-exported core types: the OODA pipeline's building blocks.
type (
	// Service is a configured AutoComp instance.
	Service = core.Service
	// Config is the full pipeline wiring (advanced use).
	Config = core.Config
	// Report is the outcome of one compaction cycle.
	Report = core.Report
	// Decision is the observe–orient–decide output.
	Decision = core.Decision
	// Candidate is a unit of compaction work.
	Candidate = core.Candidate
	// Stats is the observe-phase statistics layout.
	Stats = core.Stats
	// Trait turns stats into a ranking signal.
	Trait = core.Trait
	// Filter refines the candidate pool.
	Filter = core.Filter
	// Ranker orders candidates (threshold or MOOP).
	Ranker = core.Ranker
	// Selector picks the work set (top-k or budget).
	Selector = core.Selector
	// Runner executes one work unit.
	Runner = core.Runner
	// Table is the connector-facing table abstraction.
	Table = core.Table
	// Connector feeds lake state to the framework.
	Connector = core.Connector
	// EstimatorLedger tracks estimate-vs-actual accuracy via feedback.
	EstimatorLedger = core.EstimatorLedger
	// PeriodicTrigger schedules pull-based compaction cycles.
	PeriodicTrigger = core.PeriodicTrigger
	// AfterWriteHook is the push-based optimize-after-write trigger.
	AfterWriteHook = core.AfterWriteHook
)

// Re-exported strategy components.
var (
	// NewService validates and builds a Service from a full Config.
	NewService = core.NewService
	// QuotaAdaptiveWeights is the production weighting w1=0.5(1+u); its
	// function appends (w1, w2) to the buffer MOOPRanker passes in.
	QuotaAdaptiveWeights = core.QuotaAdaptiveWeights
)

// Scope constants for candidate generation.
const (
	ScopeTable     = core.ScopeTable
	ScopePartition = core.ScopePartition
	ScopeSnapshot  = core.ScopeSnapshot
)

// Options configures the convenience constructor New: an OpenHouse-style
// deployment with the paper's production defaults (§7) — table-scope
// candidates, ΔF + GBHr traits, quota-adaptive MOOP weights, and top-k or
// budget selection.
type Options struct {
	// Catalog is the control plane holding the tables (required).
	Catalog *catalog.ControlPlane
	// Cluster runs the rewrite jobs (a dedicated compaction cluster in
	// the paper's deployment; required).
	Cluster *cluster.Cluster

	// TargetFileSize is the compaction target (default 512 MB).
	TargetFileSize int64

	// TopK fixes the number of work units per cycle. If BudgetGBHr is
	// set instead, k is chosen dynamically to fill the budget.
	TopK       int
	BudgetGBHr float64

	// HybridScope switches to partition-scope work units on partitioned
	// tables (§6's hybrid strategy). Default is table scope.
	HybridScope bool

	// BenefitWeight/CostWeight are static MOOP weights (default
	// 0.7/0.3). When QuotaAdaptive is true, w1 follows §7's
	// 0.5×(1+quota utilization) instead.
	BenefitWeight float64
	CostWeight    float64
	QuotaAdaptive bool

	// MinTableAge skips recently created tables (default 24h).
	MinTableAge time.Duration
	// MinSmallFiles skips candidates with fewer small files (default 2).
	MinSmallFiles int

	// OnReport hooks receive each cycle's report (feedback loop).
	OnReport []func(*Report)
}

// New builds a Service over an OpenHouse-style catalog with the paper's
// production configuration: it compiles the options' policy spec
// against the catalog substrate, as every other pipeline is built.
func New(opts Options) (*Service, error) {
	if opts.Catalog == nil {
		return nil, errors.New("autocomp: Options.Catalog is required")
	}
	if opts.Cluster == nil {
		return nil, errors.New("autocomp: Options.Cluster is required")
	}
	if opts.TargetFileSize <= 0 {
		opts.TargetFileSize = 512 << 20
	}
	env, bindings := policy.CatalogSubstrate(opts.Catalog, &compaction.Executor{
		Cluster:        opts.Cluster,
		TargetFileSize: opts.TargetFileSize,
		AppPrefix:      "compaction/",
	})
	comp, err := policy.Compile(opts.spec(), env, bindings)
	if err != nil {
		return nil, err
	}
	comp.Core.OnReport = opts.OnReport
	return core.NewService(comp.Core)
}

// spec is the pipeline the options describe, defaults applied. A
// negative MinTableAge or MinSmallFiles drops that filter.
func (opts Options) spec() *policy.Spec {
	if opts.BenefitWeight == 0 && opts.CostWeight == 0 {
		opts.BenefitWeight, opts.CostWeight = 0.7, 0.3
	}
	if opts.MinTableAge == 0 {
		opts.MinTableAge = 24 * time.Hour
	}
	if opts.MinSmallFiles == 0 {
		opts.MinSmallFiles = 2
	}
	gen := "table-scope"
	if opts.HybridScope {
		gen = "hybrid-scope"
	}
	s := &policy.Spec{
		Name:       "autocomp",
		Generators: []policy.Component{policy.C(gen)},
		Traits:     []policy.Component{policy.C("file_count_reduction"), policy.C("compute_cost_gbhr")},
		Objectives: []policy.ObjectiveSpec{
			{Trait: policy.C("file_count_reduction"), Weight: opts.BenefitWeight},
			{Trait: policy.C("compute_cost_gbhr"), Weight: opts.CostWeight},
		},
		QuotaAdaptive: opts.QuotaAdaptive,
	}
	if opts.MinTableAge > 0 {
		s.PreFilters = append(s.PreFilters, policy.Component{Name: "min-table-age",
			Params: map[string]any{"min": opts.MinTableAge.String()}})
	}
	s.PreFilters = append(s.PreFilters, policy.C("not-intermediate"))
	if opts.MinSmallFiles > 0 {
		s.StatsFilters = []policy.Component{{Name: "min-small-files",
			Params: map[string]any{"min": float64(opts.MinSmallFiles)}}}
	}
	switch {
	case opts.BudgetGBHr > 0:
		s.Selector = &policy.Component{Name: "budget", Params: map[string]any{"budget_gbhr": opts.BudgetGBHr}}
	case opts.TopK > 0:
		s.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(opts.TopK)}}
	}
	return s
}
