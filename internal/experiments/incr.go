package experiments

import (
	"fmt"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// --- Incremental observation plane: observe cost vs fleet size ---

// IncrSample is one fleet-size point of the incremental sweep.
type IncrSample struct {
	Tables int
	Cycles int
	// FullObserves and IncrObserves are mean per-cycle Observe calls
	// (the expensive inner observation) in each mode, measured after the
	// cold-start cycle.
	FullObserves float64
	IncrObserves float64
	// DirtyPerCycle is the mean number of tables the incremental
	// connector served per measured cycle.
	DirtyPerCycle float64
	// Ratio is FullObserves / IncrObserves.
	Ratio float64
	// PlansMatch reports whether every cycle's selected plan (including
	// cold start) was byte-identical between the two modes.
	PlansMatch bool
}

// IncrResult characterizes the incremental observation plane: full-scan
// observation cost grows with fleet size while incremental cost grows
// with the dirty set, and — with an every-commit trigger — the selected
// plans are identical, so the savings are free of decision drift.
type IncrResult struct {
	// WriteFrac is the per-table daily write probability of the sweep.
	WriteFrac float64
	Samples   []IncrSample
}

// ID implements Result.
func (IncrResult) ID() string { return "incr" }

// Title implements Result.
func (IncrResult) Title() string {
	return "Incremental observation: observe calls vs fleet size, decision parity"
}

// Render implements Result.
func (r IncrResult) Render() string {
	rows := make([][]string, 0, len(r.Samples))
	for _, s := range r.Samples {
		match := "YES"
		if !s.PlansMatch {
			match = "NO"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Tables),
			fmt.Sprintf("%.0f", s.FullObserves),
			fmt.Sprintf("%.0f", s.IncrObserves),
			fmt.Sprintf("%.0f", s.DirtyPerCycle),
			fmt.Sprintf("%.1fx", s.Ratio),
			match,
		})
	}
	head := fmt.Sprintf("daily write fraction %.2f; observes are per-cycle means after cold start\n",
		r.WriteFrac)
	return head + metrics.RenderTable(
		[]string{"Tables", "Full observes", "Incr observes", "Dirty/cycle", "Ratio", "Plans match"}, rows)
}

// countingObserver counts inner Observe calls — the full-scan baseline's
// cost meter.
type countingObserver struct {
	inner core.Observer
	calls *int64
}

func (o countingObserver) Observe(c *core.Candidate) (core.Stats, error) {
	*o.calls++
	return o.inner.Observe(c)
}

// RunIncr ages two identically seeded fleets per size point — one under
// the full-scan pipeline, one under the incremental observation plane
// with an every-commit trigger — acting on both each cycle, and
// compares per-cycle observe cost and the selected plans. At a 1% daily
// write rate, full-scan observation cost is O(fleet) while incremental
// cost tracks the dirty set; the plans must stay byte-identical, so the
// two fleets evolve in lockstep.
func RunIncr(seed int64, quick bool) (Result, error) {
	sizes := []int{1000, 10_000, 100_000}
	cycles := 6 // first cycle is cold start, excluded from means
	if quick {
		sizes = []int{300, 1000, 3000}
		cycles = 4
	}
	const writeFrac = 0.01
	model := fleet.DefaultModel(512 * storage.MB)
	// Both sides run one spec; the incremental side adds a trigger
	// section, so the per-cycle PlansMatch check is the full-scan ≡
	// incremental parity assertion.
	spec := func(trigger *policy.TriggerSpec) *policy.Spec {
		s := policy.DefaultSpec()
		s.Selector = topK(50)
		s.Execution = nil
		s.Trigger = trigger
		return s
	}

	res := IncrResult{WriteFrac: writeFrac}
	for _, size := range sizes {
		cfg := fleetConfig(seed, quick)
		cfg.InitialTables = size
		cfg.DailyWriteProb = writeFrac

		fFull := fleet.New(cfg, sim.NewClock())
		fIncr := fleet.New(cfg, sim.NewClock())

		var fullCalls int64
		fullComp, err := policy.Compile(spec(nil), fFull.PolicyEnv(model), fFull.PolicyBindings(model))
		if err != nil {
			return nil, err
		}
		fullCfg := fullComp.Core
		fullCfg.Observer = countingObserver{inner: fullCfg.Observer, calls: &fullCalls}
		fullSvc, err := core.NewService(fullCfg)
		if err != nil {
			return nil, err
		}
		incrSS, err := fIncr.ServiceFromSpec(spec(&policy.TriggerSpec{EveryCommits: 1}), model, fleet.SpecRunOptions{})
		if err != nil {
			return nil, err
		}
		incrSvc, feed := incrSS.Svc, incrSS.Feed

		s := IncrSample{Tables: size, Cycles: cycles, PlansMatch: true}
		var prevMisses int64
		var fullSum, incrSum, dirtySum float64
		for c := 0; c < cycles; c++ {
			fFull.AdvanceDay()
			fIncr.AdvanceDay()
			fullBefore := fullCalls
			dFull, err := fullSvc.Decide()
			if err != nil {
				return nil, err
			}
			dIncr, err := incrSvc.Decide()
			if err != nil {
				return nil, err
			}
			if testkit.PlanID(dFull) != testkit.PlanID(dIncr) {
				s.PlansMatch = false
			}
			if _, err := fullSvc.Act(dFull); err != nil {
				return nil, err
			}
			if _, err := incrSvc.Act(dIncr); err != nil {
				return nil, err
			}
			cc := feed.Cache.Counters()
			if c > 0 { // steady state: skip the cold-start full scan
				fullSum += float64(fullCalls - fullBefore)
				incrSum += float64(cc.Misses - prevMisses)
				dirtySum += float64(feed.LastScan().Scanned)
			}
			prevMisses = cc.Misses
		}
		measured := float64(cycles - 1)
		s.FullObserves = fullSum / measured
		s.IncrObserves = incrSum / measured
		s.DirtyPerCycle = dirtySum / measured
		if s.IncrObserves > 0 {
			s.Ratio = s.FullObserves / s.IncrObserves
		}
		res.Samples = append(res.Samples, s)
	}
	return res, nil
}

func init() {
	register(Spec{ExpID: "incr", Title: IncrResult{}.Title(), Run: RunIncr})
}
