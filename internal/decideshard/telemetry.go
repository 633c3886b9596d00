package decideshard

import "autocomp/internal/telemetry"

// Runtime metrics of the sharded decide plane. Like the core pipeline's
// families, instrumentation is strictly passive: it records what the
// engine did and never influences a decision, so parity with the serial
// pass holds with or without a scraper attached.
var (
	mDecides = telemetry.Default().Counter(
		"autocomp_decideshard_decides_total",
		"Decide cycles run by the sharded engine.")
	mShardCandidates = telemetry.Default().Histogram(
		"autocomp_decideshard_shard_candidates",
		"Candidates one shard generated in one decide cycle.",
		telemetry.ExpBuckets(1, 4, 12))
	mShardsGauge = telemetry.Default().Gauge(
		"autocomp_decideshard_shards",
		"Decide shards of the most recently deciding engine.")
	mWorkersGauge = telemetry.Default().Gauge(
		"autocomp_decideshard_workers",
		"Worker-pool size of the most recently deciding engine.")
)
