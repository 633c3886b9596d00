package core

import "hash/fnv"

// ShardOf returns the shard a table hashes onto: a stable fnv32a hash of
// the full table name modulo the shard count. It is the one shard
// mapping in the system — the scheduler's GBHr budget shards, the decide
// plane's candidate shards, and the changefeed's index stripes all use
// it, so a table's budget shard and decide shard always align.
func ShardOf(fullName string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(fullName))
	return int(h.Sum32() % uint32(shards))
}

// Decider is the decide pass Service.Decide runs: (*Config).DecideSerial
// by default, or a sharded decide engine (see internal/decideshard), so
// core stays free of worker-pool policy. The hook receives the
// service's (defaulted, validated) configuration and returns the
// cycle's decision; Service.Decide owns the decision telemetry around
// the call.
type Decider func(*Config) (*Decision, error)

// ShardedGenerator is a Generator that partitions its own candidate pool
// by decide shard — stateful generators (the changefeed's retained pool)
// implement it so each shard touches only its own partition. The
// contract: with tables partitioned by ShardOf(FullName, shards),
// concatenating ShardCandidates(s, shards, partition[s]) over all s must
// emit the same candidate set as one Candidates(tables) call, and every
// emitted candidate's table must hash onto the shard that emitted it.
type ShardedGenerator interface {
	Generator
	ShardCandidates(shard, shards int, tables []Table) []*Candidate
}

// Versioned is implemented by tables exposing a monotonically increasing
// snapshot/commit version (both *lst.Table and *fleet.Table do). The
// execution plane records it at job start and re-reads it at commit time
// to detect writer races; the changefeed's stats cache keys entries by
// it. Tables that do not implement it are treated as never advancing.
type Versioned interface {
	Version() int64
}
