package core

import (
	"autocomp/internal/telemetry"
)

// Runtime metrics of the decision pipeline, published to the default
// telemetry registry. Instrumentation is strictly passive: it records
// what Decide/Act did and never influences them, so scenario golden
// traces are byte-identical with or without a scraper attached.
var (
	mCycles = telemetry.Default().Counter(
		"autocomp_core_cycles_total",
		"Observe-decide cycles run (Decide calls).")
	mGenerated = telemetry.Default().Counter(
		"autocomp_core_candidates_generated_total",
		"Candidates emitted by the generator before any refinement.")
	mFiltered = telemetry.Default().CounterVec(
		"autocomp_core_candidates_filtered_total",
		"Candidates removed at each refinement point.",
		"stage")
	mRanked = telemetry.Default().Counter(
		"autocomp_core_candidates_ranked_total",
		"Candidates that reached the ranker.")
	mSelected = telemetry.Default().Counter(
		"autocomp_core_candidates_selected_total",
		"Candidates the selector admitted to the plan.")
	mObserve = telemetry.Default().Counter(
		"autocomp_core_observe_calls_total",
		"Observer invocations (cache hits included; see changefeed for misses).")
	mObserveErrors = telemetry.Default().Counter(
		"autocomp_core_observe_errors_total",
		"Observer invocations that failed and aborted the cycle.")
	mMOOPScore = telemetry.Default().GaugeVec(
		"autocomp_core_moop_selected_score",
		"MOOP objective score over the last cycle's selected candidates.",
		"stat")
	mActions = telemetry.Default().CounterVec(
		"autocomp_core_actions_total",
		"Executed candidate results folded into reports, by action type and outcome.",
		"action", "outcome")
	mFilesReduced = telemetry.Default().Counter(
		"autocomp_core_files_reduced_total",
		"Net data-file reduction achieved by executed compactions.")
	mMetadataReduced = telemetry.Default().Counter(
		"autocomp_core_metadata_reduced_total",
		"Net metadata-object reduction achieved by maintenance actions.")
	mBytesRewritten = telemetry.Default().Counter(
		"autocomp_core_bytes_rewritten_total",
		"Bytes rewritten by executed actions.")
	mGBHrSpent = telemetry.Default().Counter(
		"autocomp_core_gbhr_spent_total",
		"Compute spent by executed actions (GB-hours), wasted retry work included.")
)

// Outcomes of an executed result, indexing outcomeNames.
const (
	outcomeDone = iota
	outcomeConflicted
	outcomeFailed
	outcomeSkipped
)

// outcomeNames label mActions' outcome dimension.
var outcomeNames = [...]string{
	outcomeDone:       "done",
	outcomeConflicted: "conflicted",
	outcomeFailed:     "failed",
	outcomeSkipped:    "skipped",
}

// mActionResults caches mActions' series by action type and outcome
// index, since noteResult runs once per executed job. Its last row
// holds the "unknown" action, which every out-of-range type renders as.
var mActionResults = func() [][len(outcomeNames)]*telemetry.LazyCounter {
	out := make([][len(outcomeNames)]*telemetry.LazyCounter, len(ActionTypes())+1)
	for a := range out {
		for o, name := range outcomeNames {
			out[a][o] = mActions.Lazy(ActionType(a).String(), name)
		}
	}
	return out
}()

// noteDecision records the funnel counts and score spread of one decision.
func noteDecision(d *Decision) {
	mCycles.Inc()
	mGenerated.Add(float64(d.Generated))
	mFiltered.With("pre").Add(float64(d.Generated - d.AfterPreFilters))
	mFiltered.With("stats").Add(float64(d.AfterPreFilters - d.AfterStatsFilter))
	mFiltered.With("trait").Add(float64(d.AfterStatsFilter - d.AfterTraitFilter))
	mRanked.Add(float64(len(d.Ranked)))
	mSelected.Add(float64(len(d.Selected)))
	if len(d.Selected) > 0 {
		min, max, sum := d.Selected[0].Score, d.Selected[0].Score, 0.0
		for _, c := range d.Selected {
			if c.Score < min {
				min = c.Score
			}
			if c.Score > max {
				max = c.Score
			}
			sum += c.Score
		}
		mMOOPScore.With("min").Set(min)
		mMOOPScore.With("max").Set(max)
		mMOOPScore.With("mean").Set(sum / float64(len(d.Selected)))
	}
}

// noteResult records one executed candidate result.
func noteResult(cr CandidateResult) {
	outcome := outcomeDone
	switch {
	case cr.Result.Conflict:
		outcome = outcomeConflicted
	case cr.Result.Err != nil:
		outcome = outcomeFailed
	case cr.Result.Skipped:
		outcome = outcomeSkipped
	}
	row := len(mActionResults) - 1
	if a := cr.Candidate.Action; a >= 0 && int(a) < row {
		row = int(a)
	}
	mActionResults[row][outcome].Inc()
	mGBHrSpent.Add(cr.Result.GBHr)
	if outcome == outcomeDone {
		mBytesRewritten.Add(float64(cr.Result.BytesRewritten))
		if cr.Candidate.Action == ActionDataCompaction {
			mFilesReduced.Add(float64(cr.Result.Reduction()))
		} else {
			mMetadataReduced.Add(float64(cr.Result.Reduction()))
		}
	}
}
