package autotune

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/scenario"
	"autocomp/internal/sim"
	"autocomp/internal/telemetry"
	"autocomp/internal/tuner"
)

// Config declares one tune run.
type Config struct {
	// Space is the search space (required).
	Space *Space
	// Base is the spec the search perturbs and the baseline every trial
	// is scored against (nil = policy.DefaultSpec()).
	Base *policy.Spec
	// Scenarios are the workloads every trial replays (required; names
	// must be unique — they derive the per-scenario eval seeds).
	Scenarios []*scenario.Spec
	// Optimizer is "cfo" (default), "random", or "grid".
	Optimizer string
	// Budget is the trial count (default 16).
	Budget int
	// Seed drives the whole tune: the search stream and every trial's
	// scenario seeds derive from it via sim.Child.
	Seed int64
	// Workers bounds the evaluation pool (default GOMAXPROCS). The
	// worker count never changes any result byte: CFO parallelizes
	// across scenarios within a trial, random/grid across whole trials,
	// and results merge in trial order either way.
	Workers int
	// Weights overrides the space's composite weighting.
	Weights Weights
	// TrialLog, when set, receives one JSON line per trial, in trial
	// order (the deterministic artifact the determinism battery pins).
	TrialLog io.Writer
	// OnTrial, when set, observes each trial record as it is merged, in
	// trial order.
	OnTrial func(TrialRecord)
}

// ScenarioScore is one scenario's contribution to a trial.
type ScenarioScore struct {
	Scenario string `json:"scenario"`
	// Seed is the eval seed derived from the tune seed — identical for
	// every trial, so trials compare against the baseline under common
	// random numbers.
	Seed  int64 `json:"seed"`
	Score Score `json:"score"`
	// Composite is this scenario's weighted ratio against the baseline
	// (1.0 = exactly the baseline).
	Composite float64 `json:"composite"`
}

// TrialRecord is one line of the JSONL trial log.
type TrialRecord struct {
	// Trial numbers trials from 1 in evaluation order.
	Trial int `json:"trial"`
	// Params is the quantized parameter vector the trial actually ran
	// (the raw optimizer coordinates after clamping, rounding, and
	// weight renormalization).
	Params map[string]float64 `json:"params"`
	// Invalid carries the validation error of a trial whose decoded
	// spec failed policy compilation or scenario replay; such trials
	// score as failures and carry no scenario scores.
	Invalid   string          `json:"invalid,omitempty"`
	Scenarios []ScenarioScore `json:"scenarios,omitempty"`
	// Composite is the trial's score (mean over scenarios; lower is
	// better, 1.0 = the baseline). Zero when Invalid is set.
	Composite float64 `json:"composite,omitempty"`
	// Best is the best valid composite seen up to and including this
	// trial (zero until the first valid trial).
	Best float64 `json:"best,omitempty"`
}

// ScenarioSeed names one scenario of the run and its derived eval seed.
type ScenarioSeed struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
}

// Report is the provenance record of a tune run.
type Report struct {
	Space     string         `json:"space,omitempty"`
	Base      string         `json:"base"`
	Optimizer string         `json:"optimizer"`
	Seed      int64          `json:"seed"`
	Budget    int            `json:"budget"`
	Trials    int            `json:"trials"`
	Invalid   int            `json:"invalid"`
	Weights   Weights        `json:"weights"`
	Scenarios []ScenarioSeed `json:"scenarios"`
	// Baseline is the base spec's raw score per scenario (composite 1.0
	// by construction).
	Baseline []ScenarioScore `json:"baseline"`
	// BestTrial is the 1-based winner trial; BestComposite its score.
	BestTrial     int     `json:"best_trial"`
	BestComposite float64 `json:"best_composite"`
	// ImprovementPct is how far the winner beats the baseline composite
	// (positive = strictly better than the base spec).
	ImprovementPct float64 `json:"improvement_pct"`
	// Trajectory is the best-so-far composite after each trial — the
	// y-axis of the paper's Figure 9 convergence plots (zero entries
	// precede the first valid trial).
	Trajectory []float64 `json:"trajectory"`
	// WinnerParams is the winner's quantized parameter vector and
	// WinnerDiff the field-level spec diff base → winner.
	WinnerParams map[string]float64 `json:"winner_params"`
	WinnerDiff   []string           `json:"winner_diff"`
}

// Result is a completed tune run.
type Result struct {
	// Winner is the best trial's spec, compile-clean, named with tune
	// provenance.
	Winner  *policy.Spec
	Report  Report
	Records []TrialRecord
}

// runPool executes fn(0..n-1) over a bounded worker pool, mirroring the
// decide-shard engine's work-stealing pattern. Each index writes only
// its own slot of the caller's result slice, so the merge is
// deterministic regardless of completion order.
func runPool(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// evalOne replays one scenario under the given policy on a private
// tracer and returns the trace score. The scenario runs with the
// derived eval seed, the trial policy replacing its base policy, and
// any scheduled reloads dropped — a trial's spec is the policy for the
// whole run, or the attribution of its score would be muddy.
func evalOne(sc *scenario.Spec, spec *policy.Spec, seed int64) (Score, error) {
	started := time.Now()
	cp := *sc
	cp.Seed = seed
	cp.Policy = spec
	cp.Reloads = nil
	eng, err := scenario.NewEngineOpts(&cp, scenario.EngineOptions{Tracer: telemetry.NewTracer(16)})
	if err != nil {
		return Score{}, err
	}
	tr, err := eng.Run()
	if err != nil {
		return Score{}, err
	}
	mEvals.With(sc.Name).Inc()
	mEvalSeconds.Observe(time.Since(started).Seconds())
	return ScoreTrace(tr), nil
}

// Run executes one closed tuning loop: encode the base spec as the
// warm start, let the optimizer propose parameter vectors, decode each
// into a candidate spec, validate it through policy compilation, replay
// every scenario on virtual time, score the canonical traces against
// the baseline, and return the best trial's spec with full provenance.
func Run(cfg Config) (*Result, error) {
	base := cfg.Base
	if base == nil {
		base = policy.DefaultSpec()
	}
	if err := cfg.Space.Validate(base); err != nil {
		return nil, err
	}
	if len(cfg.Scenarios) == 0 {
		return nil, errors.New("autotune: no scenarios")
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 16
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	weights := cfg.Weights
	if len(weights) == 0 {
		weights = cfg.Space.Objective
	}
	if err := weights.validate(); err != nil {
		return nil, err
	}
	weights = weights.normalized()
	env := fleet.ValidationEnv()
	if err := policy.Validate(base, env); err != nil {
		return nil, fmt.Errorf("autotune: base spec: %w", err)
	}

	// Derive one eval seed per scenario from the tune seed. The seeds
	// are label-derived (not drawn), so the scenario set's order does
	// not matter and every trial replays the identical workload — the
	// common-random-numbers pairing that makes trial-vs-baseline deltas
	// meaningful at these budgets.
	seeds := make([]int64, len(cfg.Scenarios))
	seen := map[string]bool{}
	for i, sc := range cfg.Scenarios {
		if sc == nil || sc.Name == "" {
			return nil, fmt.Errorf("autotune: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("autotune: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		seeds[i] = sim.ChildSeed(cfg.Seed, "autotune/eval/"+sc.Name)
	}
	mWorkers.Set(float64(workers))

	// Baseline pass: the base spec on every scenario, in parallel. Every
	// trial composite is a ratio against these scores.
	baseline := make([]ScenarioScore, len(cfg.Scenarios))
	baseErrs := make([]error, len(cfg.Scenarios))
	runPool(workers, len(cfg.Scenarios), func(i int) {
		score, err := evalOne(cfg.Scenarios[i], base, seeds[i])
		baseline[i] = ScenarioScore{Scenario: cfg.Scenarios[i].Name, Seed: seeds[i], Score: score, Composite: 1}
		baseErrs[i] = err
	})
	if err := errors.Join(baseErrs...); err != nil {
		mTunes.With("error").Inc()
		return nil, fmt.Errorf("autotune: baseline: %w", err)
	}

	// evalTrial decodes, validates, and replays one parameter vector.
	// Invalid points come back as failed records — a tune survives any
	// corner of the space the optimizer wanders into.
	evalTrial := func(n int, params map[string]float64) TrialRecord {
		rec := TrialRecord{Trial: n, Params: params}
		spec, err := cfg.Space.Decode(base, params)
		if err == nil {
			// Record the quantized vector the trial actually ran.
			if q, qerr := cfg.Space.Encode(spec); qerr == nil {
				rec.Params = q
			}
			err = policy.Validate(spec, env)
		}
		if err == nil {
			scores := make([]ScenarioScore, len(cfg.Scenarios))
			evalErrs := make([]error, len(cfg.Scenarios))
			runPool(workers, len(cfg.Scenarios), func(i int) {
				score, serr := evalOne(cfg.Scenarios[i], spec, seeds[i])
				scores[i] = ScenarioScore{
					Scenario:  cfg.Scenarios[i].Name,
					Seed:      seeds[i],
					Score:     score,
					Composite: Composite(score, baseline[i].Score, weights),
				}
				evalErrs[i] = serr
			})
			if err = errors.Join(evalErrs...); err == nil {
				total := 0.0
				for _, s := range scores {
					total += s.Composite
				}
				rec.Scenarios = scores
				rec.Composite = total / float64(len(scores))
			}
		}
		if err != nil {
			rec.Invalid = err.Error()
			rec.Scenarios = nil
			rec.Composite = 0
			mTrials.With("invalid").Inc()
			return rec
		}
		mTrials.With("ok").Inc()
		return rec
	}

	// emit merges records strictly in trial order: best-so-far, the
	// JSONL log, and the streaming hook all see the same sequence at
	// any worker count.
	var records []TrialRecord
	best := 0.0
	var logErr error
	emit := func(rec TrialRecord) {
		if rec.Invalid == "" && (best == 0 || rec.Composite < best) {
			best = rec.Composite
		}
		rec.Best = best
		records = append(records, rec)
		if cfg.TrialLog != nil && logErr == nil {
			b, err := json.Marshal(rec)
			if err == nil {
				_, err = cfg.TrialLog.Write(append(b, '\n'))
			}
			logErr = err
		}
		if cfg.OnTrial != nil {
			cfg.OnTrial(rec)
		}
	}

	params := cfg.Space.Params()
	start, err := cfg.Space.Encode(base)
	if err != nil {
		return nil, err
	}
	searchSeed := sim.ChildSeed(cfg.Seed, "autotune/search")
	optName := cfg.Optimizer
	if optName == "" {
		optName = "cfo"
	}
	switch optName {
	case "cfo":
		// CFO's proposals depend on earlier scores, so trials run
		// sequentially and the pool parallelizes the scenario replays
		// inside each trial. The search warm-starts from the base spec:
		// trial 1 scores 1.0 by construction and the loop hill-climbs
		// away from it.
		n := 0
		opt := tuner.CFO{Params: params, Seed: searchSeed, Start: start}
		opt.Optimize(func(p map[string]float64) float64 {
			n++
			rec := evalTrial(n, p)
			emit(rec)
			if rec.Invalid != "" {
				return math.Inf(1)
			}
			return rec.Composite
		}, budget)
	case "random", "grid":
		// Random and grid proposals never read scores, so the whole
		// plan materializes up front (via a probe objective) and trials
		// evaluate in parallel; the merge replays them in trial order.
		var opt tuner.Optimizer = tuner.RandomSearch{Params: params, Seed: searchSeed}
		if optName == "grid" {
			opt = tuner.GridSearch{Params: params}
		}
		var plan []map[string]float64
		opt.Optimize(func(p map[string]float64) float64 {
			cp := make(map[string]float64, len(p))
			for k, v := range p {
				cp[k] = v
			}
			plan = append(plan, cp)
			return 0
		}, budget)
		out := make([]TrialRecord, len(plan))
		runPool(workers, len(plan), func(i int) {
			out[i] = evalTrial(i+1, plan[i])
		})
		for _, rec := range out {
			emit(rec)
		}
	default:
		return nil, fmt.Errorf("autotune: unknown optimizer %q (have: cfo, random, grid)", cfg.Optimizer)
	}
	if logErr != nil {
		mTunes.With("error").Inc()
		return nil, fmt.Errorf("autotune: trial log: %w", logErr)
	}

	rep := Report{
		Space:     cfg.Space.Name,
		Base:      base.DisplayName(),
		Optimizer: optName,
		Seed:      cfg.Seed,
		Budget:    budget,
		Trials:    len(records),
		Weights:   weights,
		Baseline:  baseline,
	}
	for i, sc := range cfg.Scenarios {
		rep.Scenarios = append(rep.Scenarios, ScenarioSeed{Name: sc.Name, Seed: seeds[i]})
	}
	bestIdx := -1
	for i, rec := range records {
		rep.Trajectory = append(rep.Trajectory, rec.Best)
		if rec.Invalid != "" {
			rep.Invalid++
			continue
		}
		if bestIdx < 0 || rec.Composite < records[bestIdx].Composite {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		mTunes.With("error").Inc()
		return nil, errors.New("autotune: no valid trials (every decoded spec failed validation)")
	}
	bestRec := records[bestIdx]
	rep.BestTrial = bestRec.Trial
	rep.BestComposite = bestRec.Composite
	rep.ImprovementPct = 100 * (1 - bestRec.Composite)
	rep.WinnerParams = bestRec.Params

	winner, err := cfg.Space.Decode(base, bestRec.Params)
	if err != nil {
		return nil, err
	}
	rep.WinnerDiff = policy.Diff(base, winner)
	winner.Name = base.DisplayName() + "-tuned"
	winner.Description = fmt.Sprintf("tuned from %q: %s over %d trials (tune seed %d), composite %.4f vs baseline 1.0",
		base.DisplayName(), optName, rep.Trials, cfg.Seed, rep.BestComposite)
	mBestComposite.Set(rep.BestComposite)
	mTunes.With("ok").Inc()
	return &Result{Winner: winner, Report: rep, Records: records}, nil
}

// CheckTrialLog validates a JSONL trial log's schema and internal
// consistency: contiguous 1-based trial numbers, parameters on every
// line, positive composites on valid trials, and a monotonically
// non-increasing best-so-far. CI runs this on the smoke tune's log so a
// malformed or truncated log fails the build.
func CheckTrialLog(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	prevBest := math.Inf(1)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		var rec TrialRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("line %d: malformed record: %v", n, err)
		}
		if rec.Trial != n {
			return fmt.Errorf("line %d: trial number %d (want contiguous from 1)", n, rec.Trial)
		}
		if len(rec.Params) == 0 {
			return fmt.Errorf("line %d: no params", n)
		}
		if rec.Invalid == "" {
			if rec.Composite <= 0 {
				return fmt.Errorf("line %d: valid trial with composite %v", n, rec.Composite)
			}
			if len(rec.Scenarios) == 0 {
				return fmt.Errorf("line %d: valid trial with no scenario scores", n)
			}
			if rec.Best <= 0 || rec.Best > rec.Composite || rec.Best > prevBest {
				return fmt.Errorf("line %d: best %v inconsistent (composite %v, prev best %v)",
					n, rec.Best, rec.Composite, prevBest)
			}
			prevBest = rec.Best
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return errors.New("trial log is empty")
	}
	return nil
}
