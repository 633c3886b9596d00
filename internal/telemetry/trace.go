package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// FunnelTrace is the candidate funnel of one decide phase: how many
// candidates each refinement stage let through.
type FunnelTrace struct {
	Generated  int `json:"generated"`
	AfterPre   int `json:"after_pre_filters"`
	AfterStats int `json:"after_stats_filters"`
	AfterTrait int `json:"after_trait_filters"`
	Ranked     int `json:"ranked"`
	Selected   int `json:"selected"`
}

// ScanTrace describes the observation mode of one cycle.
type ScanTrace struct {
	// Mode is "scan" (full pipeline scan, no changefeed), "dirty"
	// (incremental dirty-set cycle), or "full" (incremental reconciling
	// enumeration).
	Mode string `json:"mode"`
	// Scanned is how many tables were served to the generator.
	Scanned int `json:"scanned"`
	// Pool is the candidate-pool size the generator emitted.
	Pool int `json:"pool"`
	// CacheHits and CacheMisses are this cycle's stats-cache deltas
	// (misses equal the expensive Observe calls actually made).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// DirtyNow is the dirty-set size after the cycle consumed its dirt.
	DirtyNow int `json:"dirty_now"`
}

// ExecTrace summarizes the act phase of one cycle.
type ExecTrace struct {
	Done       int `json:"done"`
	Skipped    int `json:"skipped"`
	Conflicted int `json:"conflicted"`
	Deferred   int `json:"deferred"`
	Failed     int `json:"failed"`
	Conflicts  int `json:"conflicts"`
	Retries    int `json:"retries"`
	// Workers/Shards/MakespanMS/UtilizationPct describe the worker pool
	// (zero when the cycle acted serially).
	Workers        int     `json:"workers,omitempty"`
	Shards         int     `json:"shards,omitempty"`
	MakespanMS     int64   `json:"makespan_ms,omitempty"`
	UtilizationPct float64 `json:"utilization_pct,omitempty"`
	MaxQueueDepth  int     `json:"max_queue_depth,omitempty"`
}

// OutcomeTrace is the per-action-type outcome tally of one cycle's
// executed results.
type OutcomeTrace struct {
	Action string `json:"action"`
	Done   int    `json:"done"`
}

// FleetTrace is the end-of-cycle substrate snapshot.
type FleetTrace struct {
	Tables      int     `json:"tables"`
	Files       int64   `json:"files"`
	MetaObjects int64   `json:"meta_objects"`
	TinyFrac    float64 `json:"tiny_frac"`
}

// CycleEvent is one observe→decide→act cycle in the decision-trace
// stream: the funnel, the scan mode, the execution outcomes, the budget
// spend, and the fleet state it left behind. Events are emitted by
// fleet.SpecService.RunCycle (the path autocompd, tenants and the
// scenario engine share), which also returns the stamped event: the
// daemon log, the JSONL trace stream, /statusz, tenant snapshots and
// scenario traces all read this one record.
type CycleEvent struct {
	// Seq is the tracer-assigned sequence number (1-based).
	Seq int64 `json:"seq"`
	// Day is the substrate's simulation day.
	Day int `json:"day"`
	// Tenant names the tenant whose pipeline ran the cycle (empty for
	// single-lake processes, which keeps single-tenant JSONL traces
	// byte-compatible with pre-tenant readers).
	Tenant string `json:"tenant,omitempty"`
	// Policy names the policy spec the cycle ran under.
	Policy string `json:"policy"`

	Funnel   FunnelTrace    `json:"funnel"`
	Scan     ScanTrace      `json:"scan"`
	Exec     ExecTrace      `json:"exec"`
	Outcomes []OutcomeTrace `json:"outcomes,omitempty"`

	FilesReduced    int     `json:"files_reduced"`
	MetadataReduced int     `json:"metadata_reduced"`
	BytesRewritten  int64   `json:"bytes_rewritten"`
	GBHrSpent       float64 `json:"gbhr_spent"`

	Fleet FleetTrace `json:"fleet"`
}

// String renders the event as the daemon's per-cycle log lines — the
// single renderer over the telemetry snapshot, so the log and /metrics
// can never drift apart.
func (ev CycleEvent) String() string {
	var b strings.Builder
	var data, expire, ckpt, manifest int
	for _, o := range ev.Outcomes {
		switch o.Action {
		case "data-compaction":
			data = o.Done
		case "snapshot-expiry":
			expire = o.Done
		case "metadata-checkpoint":
			ckpt = o.Done
		case "manifest-rewrite":
			manifest = o.Done
		}
	}
	fmt.Fprintf(&b, "day %3d: candidates=%4d selected=%4d reduced=%8d files  cost=%7.1f TBHr  actions[data=%d expire=%d ckpt=%d manifest=%d]  fleet=%9d files %8d meta (%4.0f%% tiny)",
		ev.Day, ev.Funnel.Generated, ev.Funnel.Selected,
		ev.FilesReduced, ev.GBHrSpent/1024,
		data, expire, ckpt, manifest,
		ev.Fleet.Files, ev.Fleet.MetaObjects, 100*ev.Fleet.TinyFrac)
	if ev.Exec.Workers > 0 {
		fmt.Fprintf(&b, "\n         sched: makespan=%8v util=%3.0f%%  queue[max=%3d]  conflicts=%3d retries=%3d deferred=%3d",
			(time.Duration(ev.Exec.MakespanMS) * time.Millisecond).Round(time.Second),
			ev.Exec.UtilizationPct, ev.Exec.MaxQueueDepth,
			ev.Exec.Conflicts, ev.Exec.Retries, ev.Exec.Deferred)
	}
	if ev.Scan.Mode != "scan" {
		fmt.Fprintf(&b, "\n         incr:  scanned=%4d tables (%s-scan)  pool=%4d  observes=%4d cache-hits=%4d  dirty-now=%d",
			ev.Scan.Scanned, ev.Scan.Mode, ev.Scan.Pool,
			ev.Scan.CacheMisses, ev.Scan.CacheHits, ev.Scan.DirtyNow)
	}
	return b.String()
}

// StatusSnapshot is autocompd's /statusz payload, which lakectl status
// decodes: daemon identity plus the same CycleEvents the log lines
// render, so the views cannot drift.
type StatusSnapshot struct {
	Policy         string       `json:"policy"`
	PolicyPath     string       `json:"policy_path,omitempty"`
	Day            int          `json:"day"`
	DaysPlanned    int          `json:"days_planned"`
	Done           bool         `json:"done"`
	Cycles         int64        `json:"cycles"`
	MetricFamilies int          `json:"metric_families"`
	LastCycle      *CycleEvent  `json:"last_cycle,omitempty"`
	RecentCycles   []CycleEvent `json:"recent_cycles,omitempty"`
}

// Tracer accumulates the decision-trace stream: a bounded ring of recent
// CycleEvents (served by /statusz) plus an optional writer receiving one
// JSON line per event. All methods are safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	ring []CycleEvent
	max  int
	seq  int64
	w    io.Writer
}

// DefaultTraceDepth is how many recent cycles the default tracer retains.
const DefaultTraceDepth = 256

// NewTracer returns a tracer retaining the last depth events (min 1).
func NewTracer(depth int) *Tracer {
	if depth < 1 {
		depth = 1
	}
	return &Tracer{max: depth}
}

var defaultTracer = NewTracer(DefaultTraceDepth)

// DefaultTracer returns the process-wide decision-trace stream.
func DefaultTracer() *Tracer { return defaultTracer }

// SetWriter streams every subsequent event to w as one JSON line
// (pass nil to stop). The JSONL schema is documented in
// docs/observability.md.
func (t *Tracer) SetWriter(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.w = w
}

// Emit appends one cycle event, assigning its sequence number, and
// returns the stamped event.
func (t *Tracer) Emit(ev CycleEvent) CycleEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	t.ring = append(t.ring, ev)
	if len(t.ring) > t.max {
		t.ring = t.ring[len(t.ring)-t.max:]
	}
	if t.w != nil {
		// Best-effort: a broken trace sink must never abort a cycle.
		if buf, err := json.Marshal(ev); err == nil {
			_, _ = t.w.Write(append(buf, '\n'))
		}
	}
	return ev
}

// Last returns the most recent event, if any.
func (t *Tracer) Last() (CycleEvent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return CycleEvent{}, false
	}
	return t.ring[len(t.ring)-1], true
}

// Recent returns up to n most recent events, oldest first.
func (t *Tracer) Recent(n int) []CycleEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > len(t.ring) {
		n = len(t.ring)
	}
	out := make([]CycleEvent, n)
	copy(out, t.ring[len(t.ring)-n:])
	return out
}

// Seq returns how many events have been emitted.
func (t *Tracer) Seq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
