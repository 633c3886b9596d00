package changefeed

import (
	"autocomp/internal/telemetry"
)

// Runtime metrics of the incremental observation plane. Recording is
// passive and atomic; the dirty-set gauge is maintained incrementally so
// the per-event cost stays O(1).
var (
	mEvents = telemetry.Default().Counter(
		"autocomp_changefeed_events_total",
		"Commit events published to changefeeds.")
	mTriggered = telemetry.Default().Counter(
		"autocomp_changefeed_triggered_total",
		"Dirty-set promotions (trigger fires, maintenance events, conflict re-dirties).")
	mDirtyTables = telemetry.Default().Gauge(
		"autocomp_changefeed_dirty_tables",
		"Tables currently in the dirty set awaiting re-observation.")
	mCacheHits = telemetry.Default().Counter(
		"autocomp_changefeed_cache_hits_total",
		"Stats-cache lookups served without an expensive observe call.")
	mCacheMisses = telemetry.Default().Counter(
		"autocomp_changefeed_cache_misses_total",
		"Stats-cache lookups that fell through to the full observer.")
	mCacheEntries = telemetry.Default().Gauge(
		"autocomp_changefeed_cache_entries",
		"Cached observations currently held.")
	mObservesSaved = telemetry.Default().Counter(
		"autocomp_changefeed_observes_saved_total",
		"Expensive observe calls avoided versus a full scan (cache hits).")
	mScans = telemetry.Default().CounterVec(
		"autocomp_changefeed_scans_total",
		"Observation cycles by mode (dirty-set walk vs reconciling full enumeration).",
		"mode")
	mScannedTables = telemetry.Default().Gauge(
		"autocomp_changefeed_scanned_tables",
		"Tables served to the generator in the most recent cycle.")
	mPoolSize = telemetry.Default().Gauge(
		"autocomp_changefeed_candidate_pool",
		"Candidate-pool size the incremental generator emitted last cycle.")
	mRetainedTables = telemetry.Default().Gauge(
		"autocomp_changefeed_retained_tables",
		"Tables with retained candidates in the incremental pool.")
)
