package core

import (
	"fmt"
	"sync"
	"time"

	"autocomp/internal/compaction"
)

// Config wires an AutoComp pipeline. Connector, Generator, Observer,
// Traits, and Ranker are required; Selector defaults to SelectAll,
// Decider to DecideSerial. Runner is required to execute (Act /
// RunOnce) but not to Decide.
type Config struct {
	Connector Connector
	Generator Generator

	// Filters at the three optional refinement points (§3.3).
	PreFilters   []Filter // before observe (identity/metadata only)
	StatsFilters []Filter // after observe (stats available)
	TraitFilters []Filter // after orient (traits available)

	Observer Observer
	// Traits is the orient phase's list; NewService numbers it into a
	// TraitSet and rejects a name listed twice.
	Traits   []Trait
	Ranker   Ranker
	Selector Selector

	Runner Runner

	// OnReport hooks implement the feedback loop from act back to
	// observe (§3.3): estimator ledgers, caches, telemetry.
	OnReport []func(*Report)

	// Decider runs the decide pass: Service.Decide hands it the
	// defaulted configuration and emits the decision telemetry after
	// the call. NewService defaults it to DecideSerial; the sharded
	// decide plane (internal/decideshard) attaches here via the policy
	// compiler's decide_shards knob.
	Decider Decider

	// traitSet numbers Traits; NewService sets it.
	traitSet *TraitSet
}

// Service is a configured AutoComp instance.
type Service struct {
	cfg Config
}

// NewService validates cfg and returns a runnable service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Connector == nil {
		return nil, fmt.Errorf("core: Config.Connector is required")
	}
	if cfg.Generator == nil {
		return nil, fmt.Errorf("core: Config.Generator is required")
	}
	if cfg.Observer == nil {
		return nil, fmt.Errorf("core: Config.Observer is required")
	}
	if len(cfg.Traits) == 0 {
		return nil, fmt.Errorf("core: at least one Trait is required")
	}
	set, err := NewTraitSet(cfg.Traits)
	if err != nil {
		return nil, err
	}
	cfg.traitSet = set
	if cfg.Ranker == nil {
		return nil, fmt.Errorf("core: Config.Ranker is required")
	}
	if v, ok := cfg.Ranker.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Selector == nil {
		cfg.Selector = SelectAll{}
	}
	if cfg.Decider == nil {
		cfg.Decider = (*Config).DecideSerial
	}
	return &Service{cfg: cfg}, nil
}

// Runner returns the configured runner (nil when the service can only
// Decide). External execution planes — e.g. the scheduler's worker pool —
// use it to run the selected candidates themselves.
func (s *Service) Runner() Runner { return s.cfg.Runner }

// Decision is the output of the observe–orient–decide phases: the ranked
// and selected candidates, with pool sizes at each refinement point for
// explainability (NFR2).
type Decision struct {
	At time.Duration

	Generated        int
	AfterPreFilters  int
	AfterStatsFilter int
	AfterTraitFilter int

	Ranked   []*Candidate
	Selected []*Candidate
}

// Decide runs candidate generation, observe, orient, and decide through
// the configured Decider, without acting. Event-driven harnesses use it
// to act on the selection.
func (s *Service) Decide() (*Decision, error) {
	d, err := s.cfg.Decider(&s.cfg)
	if err != nil {
		return nil, err
	}
	noteDecision(d)
	return d, nil
}

// DecideSerial is the single-goroutine decide pass over the whole pool —
// the default Decider and the parity reference for sharded engines.
func (cfg *Config) DecideSerial() (*Decision, error) {
	d := &Decision{At: cfg.Connector.Now()}
	cands, err := cfg.Refine(cfg.Generator.Candidates(cfg.Connector.Tables()), d)
	if err != nil {
		return nil, err
	}
	d.Ranked = cfg.Ranker.Rank(cands)
	d.Selected = cfg.Selector.Select(d.Ranked)
	return d, nil
}

// Refine runs the refinement points between generation and ranking over
// a generated pool, in pipeline order — pre-filter, observe,
// stats-filter, orient, trait-filter — and returns the survivors. Each
// stage's pool size is added to d's funnel counts, so a sharded decide
// plane refines every shard into its own Decision and sums them, while
// DecideSerial refines the whole pool once. The observe stage adds its
// call count to the observation counter once per pass; an observer
// error aborts the pass, counting the calls made, the failing one
// included.
//
// A retained candidate's vector from an earlier cycle is dropped up
// front, so filters before orient read 0 for every candidate alike and
// a candidate they drop keeps no earlier slab alive.
func (cfg *Config) Refine(cands []*Candidate, d *Decision) ([]*Candidate, error) {
	if cfg.traitSet == nil {
		return nil, fmt.Errorf("core: Config has no trait numbering; build the pipeline with NewService")
	}
	d.Generated += len(cands)
	for _, c := range cands {
		c.TraitSet, c.Traits = nil, nil
	}

	cands = ApplyFilters(cands, cfg.PreFilters)
	d.AfterPreFilters += len(cands)

	for i, c := range cands {
		stats, err := cfg.Observer.Observe(c)
		if err != nil {
			mObserve.Add(float64(i + 1))
			mObserveErrors.Inc()
			return nil, fmt.Errorf("core: observe %s: %w", c.ID(), err)
		}
		c.Stats = stats
	}
	mObserve.Add(float64(len(cands)))
	cands = ApplyFilters(cands, cfg.StatsFilters)
	d.AfterStatsFilter += len(cands)

	Orient(cands, cfg.traitSet)
	cands = ApplyFilters(cands, cfg.TraitFilters)
	d.AfterTraitFilter += len(cands)
	return cands, nil
}

// CandidateResult pairs a selected candidate with its execution result
// and the estimates the decision was based on, feeding the §7 model
// accuracy analysis.
type CandidateResult struct {
	Candidate *Candidate
	Result    compaction.Result

	EstimatedReduction float64 // file_count_reduction trait at decide time
	EstimatedGBHr      float64 // compute_cost_gbhr trait at decide time
}

// Report is the outcome of one full OODA cycle.
type Report struct {
	Decision *Decision
	Results  []CandidateResult

	FilesReduced int
	// MetadataReduced is the net metadata-object reduction achieved by
	// maintenance actions (checkpoints, expiries, manifest rewrites).
	MetadataReduced int
	BytesRewritten  int64
	ActualGBHr      float64
	Conflicts       int
	Skipped         int
	Errors          int
}

// ActionCounts tallies the executed (non-skipped, non-failed) results by
// action type — the per-cycle action breakdown operators monitor.
func (r *Report) ActionCounts() map[ActionType]int {
	out := make(map[ActionType]int)
	for _, cr := range r.Results {
		if cr.Result.Skipped || cr.Result.Err != nil || cr.Result.Conflict {
			continue
		}
		out[cr.Candidate.Action]++
	}
	return out
}

// Act runs a decision's selection with the configured Runner in rank
// order, each run finishing before the next starts, so no two work
// units of one table overlap (§4.4).
func (s *Service) Act(d *Decision) (*Report, error) {
	if s.cfg.Runner == nil {
		return nil, fmt.Errorf("core: Config.Runner is required to Act")
	}
	rep := &Report{Decision: d}
	for _, c := range d.Selected {
		rep.add(c, s.cfg.Runner.Run(c))
	}
	s.feedback(rep)
	return rep, nil
}

// add folds one result into the report.
func (r *Report) add(c *Candidate, res compaction.Result) {
	est := c.Trait(SlotFileCountReduction)
	if c.Action != ActionDataCompaction {
		est = c.Trait(SlotMetadataReduction)
	}
	cr := CandidateResult{
		Candidate:          c,
		Result:             res,
		EstimatedReduction: est,
		EstimatedGBHr:      c.Trait(SlotComputeCost),
	}
	r.Results = append(r.Results, cr)
	noteResult(cr)
	r.ActualGBHr += res.GBHr
	switch {
	case res.Conflict:
		r.Conflicts++
	case res.Err != nil:
		r.Errors++
	case res.Skipped:
		r.Skipped++
	case c.Action != ActionDataCompaction:
		// Maintenance runners report metadata objects removed/added in
		// the file fields; account them on the metadata axis.
		r.MetadataReduced += res.Reduction()
		r.BytesRewritten += res.BytesRewritten
	default:
		r.FilesReduced += res.Reduction()
		r.BytesRewritten += res.BytesRewritten
	}
}

// AddResult exposes result folding for harnesses that execute the
// selection themselves (two-phase ops interleaved with a workload).
func (r *Report) AddResult(c *Candidate, res compaction.Result) { r.add(c, res) }

// Feedback runs the configured feedback hooks on an externally assembled
// report (harness-executed selections).
func (s *Service) Feedback(rep *Report) { s.feedback(rep) }

func (s *Service) feedback(rep *Report) {
	for _, fn := range s.cfg.OnReport {
		fn(rep)
	}
}

// RunOnce performs one complete cycle: Decide then Act.
func (s *Service) RunOnce() (*Report, error) {
	d, err := s.Decide()
	if err != nil {
		return nil, err
	}
	return s.Act(d)
}

// EstimateRecord is one estimate-vs-actual observation.
type EstimateRecord struct {
	ID                 string
	EstimatedReduction float64
	ActualReduction    float64
	EstimatedGBHr      float64
	ActualGBHr         float64
}

// EstimatorLedger accumulates estimate-vs-actual pairs via the feedback
// loop, quantifying model accuracy as the paper does in §7 (a compaction
// estimated at 108 TBHr consumed 129 TBHr, 19% underestimation, while
// file-count reduction was overestimated by 28%).
type EstimatorLedger struct {
	mu   sync.Mutex
	recs []EstimateRecord
}

// Observe is an OnReport feedback hook.
func (l *EstimatorLedger) Observe(rep *Report) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, cr := range rep.Results {
		if cr.Result.Skipped || cr.Result.Err != nil {
			continue
		}
		l.recs = append(l.recs, EstimateRecord{
			ID:                 cr.Candidate.ID(),
			EstimatedReduction: cr.EstimatedReduction,
			ActualReduction:    float64(cr.Result.Reduction()),
			EstimatedGBHr:      cr.EstimatedGBHr,
			ActualGBHr:         cr.Result.GBHr,
		})
	}
}

// Records returns a copy of the ledger.
func (l *EstimatorLedger) Records() []EstimateRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]EstimateRecord, len(l.recs))
	copy(out, l.recs)
	return out
}

// CostUnderestimationPct returns the mean percentage by which actual
// GBHr exceeded the estimate, relative to the estimate (positive =
// underestimation).
func (l *EstimatorLedger) CostUnderestimationPct() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum float64
	n := 0
	for _, r := range l.recs {
		if r.EstimatedGBHr <= 0 {
			continue
		}
		sum += (r.ActualGBHr - r.EstimatedGBHr) / r.EstimatedGBHr * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ReductionOverestimationPct returns the mean percentage by which the
// estimated file-count reduction exceeded the achieved one, relative to
// the achieved one (positive = overestimation).
func (l *EstimatorLedger) ReductionOverestimationPct() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum float64
	n := 0
	for _, r := range l.recs {
		if r.ActualReduction <= 0 {
			continue
		}
		sum += (r.EstimatedReduction - r.ActualReduction) / r.ActualReduction * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
