package scheduler

import (
	"autocomp/internal/telemetry"
)

// Runtime metrics of the execution plane. Multiple pools in one process
// share these families (per-cycle sub-pools of a daemon, concurrent
// tests); counters aggregate across pools and gauges reflect the most
// recent writer. Recording is passive — the pool's state machine never
// reads a metric back.
var (
	mSubmitted = telemetry.Default().Counter(
		"autocomp_sched_jobs_submitted_total",
		"Jobs submitted to execution pools.")
	mJobs = telemetry.Default().CounterVec(
		"autocomp_sched_jobs_total",
		"Jobs reaching a terminal state, by status.",
		"status")
	mConflicts = telemetry.Default().Counter(
		"autocomp_sched_commit_conflicts_total",
		"Optimistic-concurrency commit aborts (writers advanced the table).")
	mRetries = telemetry.Default().Counter(
		"autocomp_sched_commit_retries_total",
		"Commit aborts that re-queued the job with backoff.")
	mLeaseWaits = telemetry.Default().Counter(
		"autocomp_sched_lease_waits_total",
		"Jobs parked at dispatch behind a held table lease, counted once per parking, not per dispatch pass.")
	mQueueDepth = telemetry.Default().Gauge(
		"autocomp_sched_queue_depth",
		"Pending jobs in the most recently active pool.")
	mWorkersBusy = telemetry.Default().Gauge(
		"autocomp_sched_workers_busy",
		"Jobs in flight in the most recently active pool.")
	mWaitTime = telemetry.Default().Histogram(
		"autocomp_sched_job_wait_seconds",
		"Pool-clock time a job waited in the queue before each dispatch.",
		[]float64{1, 10, 60, 300, 900, 3600, 14400, 86400})
	mMakespan = telemetry.Default().Histogram(
		"autocomp_sched_cycle_makespan_seconds",
		"Pool-clock makespan of drained cycles (first dispatch to last completion).",
		[]float64{60, 300, 900, 1800, 3600, 7200, 14400, 43200, 86400})
	mOccupancy = telemetry.Default().Histogram(
		"autocomp_sched_cycle_utilization_ratio",
		"Worker occupancy of drained cycles (busy time over worker-time).",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
	mSchedSpend = telemetry.Default().Counter(
		"autocomp_sched_gbhr_spent_total",
		"Compute charged against shard budgets (GB-hours), wasted attempts included.")
)

// mJobs' series by status, cached because the pool bumps one per job.
var (
	mJobsDone       = mJobs.Lazy("done")
	mJobsSkipped    = mJobs.Lazy("skipped")
	mJobsFailed     = mJobs.Lazy("failed")
	mJobsConflicted = mJobs.Lazy("conflicted")
	mJobsDeferred   = mJobs.Lazy("deferred")
)
