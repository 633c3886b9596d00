package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"autocomp/internal/metrics"
)

// Explainability (NFR2): deterministic decisions are only half the story —
// operators debugging a large deployment need to see *why* a candidate
// was (not) selected. Explain renders the decision funnel and the ranked
// candidates with their traits and scores.

// Explain renders a human-readable account of the decision: the funnel of
// pool sizes through the filter points, then the top candidates with
// their trait values, scores, and whether they were selected. maxRows
// bounds the candidate listing (0 = 20).
func (d *Decision) Explain(maxRows int) string {
	if maxRows <= 0 {
		maxRows = 20
	}
	var b strings.Builder
	fmt.Fprintf(&b, "decision at t=%v\n", d.At)
	fmt.Fprintf(&b, "funnel: %d generated -> %d after pre-filters -> %d after stats filters -> %d after trait filters -> %d selected\n",
		d.Generated, d.AfterPreFilters, d.AfterStatsFilter, d.AfterTraitFilter, len(d.Selected))

	selected := make(map[*Candidate]bool, len(d.Selected))
	for _, c := range d.Selected {
		selected[c] = true
	}

	// Columns: the union of the trait names the ranked candidates'
	// sets compute, sorted for stable output.
	var names []string
	var last *TraitSet
	for _, c := range d.Ranked {
		if c.TraitSet == last {
			continue
		}
		last = c.TraitSet
		for _, t := range last.Traits() {
			if !slices.Contains(names, t.Name()) {
				names = append(names, t.Name())
			}
		}
	}
	sort.Strings(names)

	headers := append([]string{"#", "Candidate", "Action", "Scope", "Score"}, names...)
	headers = append(headers, "Selected")
	var rows [][]string
	for i, c := range d.Ranked {
		if i >= maxRows {
			break
		}
		row := []string{
			fmt.Sprintf("%d", i+1),
			c.ID(),
			c.Action.String(),
			c.Scope.String(),
			fmt.Sprintf("%.4f", c.Score),
		}
		for _, name := range names {
			row = append(row, fmt.Sprintf("%.3f", c.Trait(c.TraitSet.Slot(name))))
		}
		mark := ""
		if selected[c] {
			mark = "yes"
		}
		row = append(row, mark)
		rows = append(rows, row)
	}
	b.WriteString(metrics.RenderTable(headers, rows))
	if len(d.Ranked) > maxRows {
		fmt.Fprintf(&b, "... and %d more ranked candidates\n", len(d.Ranked)-maxRows)
	}
	return b.String()
}

// Summary renders one line per executed result, for operator logs.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle: %d selected, %d files reduced, %s rewritten, %.3f GBHr, %d conflicts, %d skipped, %d errors\n",
		len(r.Decision.Selected), r.FilesReduced,
		metrics.FormatBytes(r.BytesRewritten), r.ActualGBHr,
		r.Conflicts, r.Skipped, r.Errors)
	for _, cr := range r.Results {
		status := "ok"
		switch {
		case cr.Result.Conflict:
			status = fmt.Sprintf("conflict(%d groups)", cr.Result.ConflictCount)
		case cr.Result.Err != nil:
			status = "error"
		case cr.Result.Skipped:
			status = "skipped"
		}
		fmt.Fprintf(&b, "  %-40s %-18s est ΔF %6.0f actual %6d  %.3f GBHr\n",
			cr.Candidate.ID(), status, cr.EstimatedReduction,
			cr.Result.Reduction(), cr.Result.GBHr)
	}
	return b.String()
}
