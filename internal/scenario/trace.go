package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"autocomp/internal/core"
	"autocomp/internal/telemetry"
)

// TraceVersion is bumped whenever the canonical rendering changes shape,
// so stale goldens fail loudly instead of diffing confusingly.
const TraceVersion = 1

// Injection tallies what the scenario injected during one day: pattern
// commits/files, dropped tables, and injected commit failures.
type Injection struct {
	Commits  int64
	Files    int64
	Drops    []string
	Failures int64
}

// CycleTrace is one observe→decide→act cycle of the run: the
// CycleEvent the cycle emitted (funnel, scan mode, execution outcomes,
// effect, fleet state) plus what only the scenario knows.
type CycleTrace struct {
	telemetry.CycleEvent
	// Reloaded marks the cycle that first ran under a reloaded policy
	// (reloads apply at cycle boundaries only).
	Reloaded bool
	// Actions counts selected candidates per action type, indexed by
	// core.ActionType and sized from core.ActionTypes() (a new action
	// type shows up as a trace diff, not a panic).
	Actions []int
	// Top lists up to eight selected candidate IDs in rank order — the
	// decision-level fingerprint golden traces lock in.
	Top []string
	// SpendGBHr is the per-shard committed budget spend (nil without an
	// execution plane).
	SpendGBHr []float64
	// MakespanHours is the execution plane's virtual wall time for the
	// cycle (zero without a scheduler). It is carried for consumers that
	// score traces — e.g. the autotune harness — and deliberately not
	// rendered by Marshal, so golden trace bytes are unaffected.
	MakespanHours float64
	// QuotaMax is the highest tenant quota utilization at the end of the
	// cycle (0 when quotas are unlimited).
	QuotaMax float64
	Inject   Injection
}

// FinalTrace is the end-of-run summary and cumulative totals.
type FinalTrace struct {
	Fleet           telemetry.FleetTrace
	QuotaMax        float64
	FilesReduced    int
	MetadataReduced int
	ActualGBHr      float64
	Conflicts       int
	Failures        int
	InjectedCommits int64
	Dropped         int
}

// Trace is a complete scenario run in canonical, normalized form: equal
// (scenario, seed) pairs marshal to byte-identical traces.
type Trace struct {
	Scenario string
	Seed     int64
	Days     int
	Cycles   []CycleTrace
	Final    FinalTrace
}

// fmtF renders a float with fixed precision — the only float form that
// appears in a trace, so rendering is byte-stable.
func fmtF(v float64, prec int) string {
	s := strconv.FormatFloat(v, 'f', prec, 64)
	// Normalize negative zero, which can arise from rounding tiny
	// negative float residue.
	if strings.Trim(s, "-0.") == "" {
		return strconv.FormatFloat(0, 'f', prec, 64)
	}
	return s
}

// Marshal renders the canonical trace text.
func (tr *Trace) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# autocomp scenario trace v%d\n", TraceVersion)
	fmt.Fprintf(&b, "scenario=%s seed=%d days=%d\n", tr.Scenario, tr.Seed, tr.Days)
	for i := range tr.Cycles {
		c := &tr.Cycles[i]
		b.WriteByte('\n')
		reload := ""
		if c.Reloaded {
			reload = " reloaded=true"
		}
		fmt.Fprintf(&b, "cycle=%d policy=%s%s scan=%s scanned=%d pool=%d\n",
			c.Day, c.Policy, reload, c.Scan.Mode, c.Scan.Scanned, c.Scan.Pool)
		f := &c.Funnel
		fmt.Fprintf(&b, "  funnel: generated=%d pre=%d stats=%d trait=%d ranked=%d selected=%d\n",
			f.Generated, f.AfterPre, f.AfterStats, f.AfterTrait, f.Ranked, f.Selected)
		parts := make([]string, 0, len(c.Actions))
		for _, a := range core.ActionTypes() {
			if int(a) < len(c.Actions) && c.Actions[int(a)] > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", a, c.Actions[int(a)]))
			}
		}
		if len(parts) == 0 {
			parts = append(parts, "none")
		}
		fmt.Fprintf(&b, "  actions: %s\n", strings.Join(parts, " "))
		if len(c.Top) > 0 {
			fmt.Fprintf(&b, "  top: %s\n", strings.Join(c.Top, " "))
		}
		fmt.Fprintf(&b, "  exec: done=%d skipped=%d conflicted=%d deferred=%d failed=%d conflicts=%d retries=%d\n",
			c.Exec.Done, c.Exec.Skipped, c.Exec.Conflicted, c.Exec.Deferred, c.Exec.Failed,
			c.Exec.Conflicts, c.Exec.Retries)
		if len(c.SpendGBHr) > 0 {
			spend := make([]string, len(c.SpendGBHr))
			for i, v := range c.SpendGBHr {
				spend[i] = fmtF(v, 3)
			}
			fmt.Fprintf(&b, "  spend_gbhr: %s\n", strings.Join(spend, "/"))
		}
		fmt.Fprintf(&b, "  effect: files_reduced=%d metadata_reduced=%d bytes_rewritten=%d actual_gbhr=%s\n",
			c.FilesReduced, c.MetadataReduced, c.BytesRewritten, fmtF(c.GBHrSpent, 3))
		drops := "-"
		if len(c.Inject.Drops) > 0 {
			drops = strings.Join(c.Inject.Drops, ",")
		}
		fmt.Fprintf(&b, "  inject: commits=%d files=%d failures=%d drops=%s\n",
			c.Inject.Commits, c.Inject.Files, c.Inject.Failures, drops)
		fmt.Fprintf(&b, "  fleet: %s\n", renderFleet(c.Fleet, c.QuotaMax))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "final: %s\n", renderFleet(tr.Final.Fleet, tr.Final.QuotaMax))
	fmt.Fprintf(&b, "totals: files_reduced=%d metadata_reduced=%d actual_gbhr=%s conflicts=%d failures=%d injected_commits=%d dropped=%d\n",
		tr.Final.FilesReduced, tr.Final.MetadataReduced, fmtF(tr.Final.ActualGBHr, 3),
		tr.Final.Conflicts, tr.Final.Failures, tr.Final.InjectedCommits, tr.Final.Dropped)
	return []byte(b.String())
}

func renderFleet(f telemetry.FleetTrace, quotaMax float64) string {
	return fmt.Sprintf("tables=%d files=%d tiny_frac=%s meta_objects=%d quota_max=%s",
		f.Tables, f.Files, fmtF(f.TinyFrac, 4), f.MetaObjects, fmtF(quotaMax, 4))
}

// DiffTraces compares two marshaled traces line by line and returns
// human-readable difference lines ("-" expected, "+" got), capped so a
// wholesale divergence stays readable. Identical traces return nil.
func DiffTraces(want, got []byte) []string {
	if string(want) == string(got) {
		return nil
	}
	a := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	c := strings.Split(strings.TrimRight(string(got), "\n"), "\n")
	const maxLines = 40
	var out []string
	n := len(a)
	if len(c) > n {
		n = len(c)
	}
	truncated := false
	for i := 0; i < n; i++ {
		if len(out) >= maxLines {
			truncated = true
			break
		}
		var la, lc string
		if i < len(a) {
			la = a[i]
		}
		if i < len(c) {
			lc = c[i]
		}
		if la == lc {
			continue
		}
		if la != "" {
			out = append(out, fmt.Sprintf("-%4d| %s", i+1, la))
		}
		if lc != "" {
			out = append(out, fmt.Sprintf("+%4d| %s", i+1, lc))
		}
	}
	if truncated {
		out = append(out, fmt.Sprintf("... (diff truncated at %d lines)", maxLines))
	}
	return out
}
