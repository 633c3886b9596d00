// Package decideshard is the sharded decide plane: it partitions the
// fleet into S shards with a stable hash on the full table name
// (core.ShardOf — the same mapping the scheduler's GBHr budget shards
// use, so a table's budget shard and decide shard always align) and runs
// candidate generation, the refinement points (core.Config.Refine) and
// MOOP scoring per shard on a bounded worker pool. A deterministic k-way
// heap merge then reassembles the global ranking.
//
// # Byte-identical parity
//
// The engine's contract is not "similar decisions faster" but the same
// bytes: Decide returns exactly what core's serial pass returns — same
// funnel counts, same ranked order, same scores, same selection. Three
// properties deliver this:
//
//  1. Candidate partitioning is by table: every core.Generator is
//     table-local and a core.ShardedGenerator partitions its own pool,
//     and every pipeline stage up to ranking is per-candidate, so
//     shard-local filtering/observation/orientation computes exactly the
//     serial values.
//  2. The only cross-candidate coupling — MOOP min-max normalization —
//     factors into per-shard trait extrema merged exactly (min/max has
//     no accumulation error), after which each shard scores its
//     candidates with bit-identical arithmetic (core.Ranker).
//  3. Ranking order is a total order (score desc, candidate ID asc) for
//     unique IDs, so independently sorted shards merge into the exact
//     serial ordering regardless of shard completion order; MergeRanked
//     emits it without re-sorting the merged tail.
//
// Every shard count, one included, runs this same path, so the engine's
// timing stats and critical path mean the same thing at every count.
//
// # Concurrency requirements
//
// Decide serializes itself (an engine runs one cycle at a time), but
// within a cycle the configured Observer, Generator (per-shard calls),
// Filters, and Traits execute concurrently on disjoint candidate sets
// and must be safe for that: anything they share internally (stats
// caches, quota lookups) needs its own synchronization. The changefeed's
// per-table index is lock-striped for exactly this fan-out. Shard
// count is fixed for the engine's lifetime; policy hot-reload swaps in a
// new engine between cycles, so shard count only ever changes at a cycle
// boundary.
package decideshard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autocomp/internal/core"
)

// Options parameterizes an Engine.
type Options struct {
	// Shards is the number of decide shards tables hash onto; values
	// below 1 mean one shard.
	Shards int
	// Workers bounds the goroutines running shard work; 0 defaults to
	// min(Shards, GOMAXPROCS). More workers than shards is never useful
	// (work is per-shard) and is capped.
	Workers int
	// Clock, when set, supplies the instants the engine's per-shard
	// timing stats and latency histograms are stamped with — a
	// simulation passes its virtual clock so the metric stream is
	// seed-deterministic; nil means the process wall clock.
	Clock func() time.Duration
}

// procStart anchors the wall-clock fallback for timing stamps.
var procStart = time.Now()

// Engine is a sharded decide plane bound to a fixed shard count. Create
// one with New and attach its Decide method as core.Config.Decider (the
// policy compiler does this for decide_shards > 1). Safe for concurrent
// Decide calls, which serialize on an internal mutex.
type Engine struct {
	shards  int
	workers int
	clock   func() time.Duration

	mu   sync.Mutex
	last CycleStats
}

// CycleStats is the engine's timing breakdown of its most recent decide
// cycle — the basis for the shard experiment's critical-path projection
// (on a host with fewer cores than shards, wall time cannot show the
// parallel win; max-shard time plus merge time is what wall time becomes
// with enough cores).
type CycleStats struct {
	// Shards is the cycle's shard count (0 = no cycle yet).
	Shards int
	// ShardPipeline is each shard's generate→trait-filter duration;
	// ShardRank each shard's rank-phase duration.
	ShardPipeline []time.Duration
	ShardRank     []time.Duration
	// Merge is the k-way merge duration.
	Merge time.Duration
	// ShardCandidates is each shard's generated-candidate count.
	ShardCandidates []int
}

// CriticalPath is the cycle's ideal-parallel decide time: the slowest
// shard's pipeline+rank chain plus the serial merge.
func (cs CycleStats) CriticalPath() time.Duration {
	var max time.Duration
	for s := range cs.ShardPipeline {
		d := cs.ShardPipeline[s]
		if s < len(cs.ShardRank) {
			d += cs.ShardRank[s]
		}
		if d > max {
			max = d
		}
	}
	return max + cs.Merge
}

// LastCycle returns a copy of the most recent cycle's stats.
func (e *Engine) LastCycle() CycleStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.last
	cs.ShardPipeline = append([]time.Duration(nil), e.last.ShardPipeline...)
	cs.ShardRank = append([]time.Duration(nil), e.last.ShardRank...)
	cs.ShardCandidates = append([]int(nil), e.last.ShardCandidates...)
	return cs
}

// shardOut is one shard's per-cycle pipeline result: its funnel counts,
// surviving candidates and ranking summary.
type shardOut struct {
	funnel core.Decision
	cands  []*core.Candidate
	stats  any
	err    error
}

// New returns an engine with opts applied and defaults filled.
func New(opts Options) *Engine {
	s := opts.Shards
	if s < 1 {
		s = 1
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > s {
		w = s
	}
	return &Engine{shards: s, workers: w, clock: opts.Clock}
}

// now returns the instant timing stats are stamped with: the configured
// clock, or monotonic process wall time.
func (e *Engine) now() time.Duration {
	if e.clock != nil {
		return e.clock()
	}
	return time.Since(procStart)
}

// Workers returns the engine's worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// Decide implements core.Decider: one observe→orient→decide pass with
// per-shard fan-out, byte-identical to cfg.DecideSerial() under the
// parity contract in the package doc.
func (e *Engine) Decide(cfg *core.Config) (*core.Decision, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	mDecides.Inc()
	mShardsGauge.Set(float64(e.shards))
	mWorkersGauge.Set(float64(e.workers))
	e.last = CycleStats{
		Shards:          e.shards,
		ShardPipeline:   make([]time.Duration, e.shards),
		ShardRank:       make([]time.Duration, e.shards),
		ShardCandidates: make([]int, e.shards),
	}

	d := &core.Decision{At: cfg.Connector.Now()}
	tables := make([][]core.Table, e.shards)
	for _, t := range cfg.Connector.Tables() {
		s := core.ShardOf(t.FullName(), e.shards)
		tables[s] = append(tables[s], t)
	}
	sharded, _ := cfg.Generator.(core.ShardedGenerator)

	// Phase A, per shard: generate → refine → ranking summary.
	outs := make([]shardOut, e.shards)
	e.runShards(func(s int) {
		started := e.now()
		out := &outs[s]
		var cands []*core.Candidate
		if sharded != nil {
			cands = sharded.ShardCandidates(s, e.shards, tables[s])
		} else {
			cands = cfg.Generator.Candidates(tables[s])
		}
		e.last.ShardCandidates[s] = len(cands)
		mShardCandidates.Observe(float64(len(cands)))
		if out.cands, out.err = cfg.Refine(cands, &out.funnel); out.err != nil {
			return
		}
		out.stats = cfg.Ranker.ShardStats(out.cands)
		e.last.ShardPipeline[s] = e.now() - started
		mShardSeconds.With("pipeline").Observe(e.last.ShardPipeline[s].Seconds())
	})
	stats := make([]any, e.shards)
	for s := range outs {
		if err := outs[s].err; err != nil {
			return nil, err
		}
		d.Generated += outs[s].funnel.Generated
		d.AfterPreFilters += outs[s].funnel.AfterPreFilters
		d.AfterStatsFilter += outs[s].funnel.AfterStatsFilter
		d.AfterTraitFilter += outs[s].funnel.AfterTraitFilter
		stats[s] = outs[s].stats
	}

	// Phase B: rank per shard against exactly-merged global stats, then
	// the deterministic k-way merge.
	global := cfg.Ranker.MergeStats(stats)
	ranked := make([][]*core.Candidate, e.shards)
	e.runShards(func(s int) {
		started := e.now()
		ranked[s] = cfg.Ranker.RankShard(outs[s].cands, global)
		e.last.ShardRank[s] = e.now() - started
		mShardSeconds.With("rank").Observe(e.last.ShardRank[s].Seconds())
	})
	started := e.now()
	d.Ranked = MergeRanked(ranked)
	e.last.Merge = e.now() - started
	mMergeSeconds.Observe(e.last.Merge.Seconds())

	d.Selected = cfg.Selector.Select(d.Ranked)
	return d, nil
}

// runShards runs fn(0..shards-1) on the bounded worker pool and waits.
// Shard indices are pulled from an atomic counter so slow shards never
// idle a worker that could take the next one.
func (e *Engine) runShards(fn func(int)) {
	w := e.workers
	if w <= 1 {
		for s := 0; s < e.shards; s++ {
			fn(s)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1))
				if s >= e.shards {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
}
