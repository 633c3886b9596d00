// Package decideshard is the sharded decide plane: it partitions the
// fleet into S shards with a stable hash on the full table name
// (core.ShardOf — the same mapping the scheduler's GBHr budget shards
// use, so a table's budget shard and decide shard always align) and runs
// candidate generation and the refinement points (core.Config.Refine)
// per shard on a bounded worker pool. The shards' survivors are then
// concatenated and ranked once, by the core.Ranker call the serial pass
// makes.
//
// # Byte-identical parity
//
// The engine's contract is not "similar decisions faster" but the same
// bytes: Decide returns exactly what core's serial pass returns — same
// funnel counts, same ranked order, same scores, same selection. Two
// properties deliver this:
//
//  1. Candidate partitioning is by table: every core.Generator is
//     table-local and a core.ShardedGenerator partitions its own pool,
//     and every pipeline stage up to ranking is per-candidate, so
//     shard-local filtering/observation/orientation computes exactly the
//     serial values.
//  2. Ranking is one Ranker.Rank call over the whole surviving pool, as
//     in the serial pass, so every cross-candidate term (the MOOP's
//     min-max bounds) sees the same pool. Rank is a stable sort by
//     descending score, then candidate ID — a total order for unique
//     IDs — so the pool's order, which differs from the serial pass's,
//     cannot move a candidate.
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
}

// Engine is a sharded decide plane bound to a fixed shard count. Create
// one with New and attach its Decide method as core.Config.Decider (the
// policy compiler does this for decide_shards > 1). Safe for concurrent
// Decide calls, which serialize on an internal mutex.
type Engine struct {
	shards  int
	workers int

	mu   sync.Mutex
	last CycleStats
}

// CycleStats is the engine's host wall-time breakdown of its most
// recent decide cycle — the basis for the shard experiment's
// critical-path projection (on a host with fewer cores than shards, wall
// time cannot show the parallel win; max-shard time plus merge time is
// what wall time becomes with enough cores).
type CycleStats struct {
	// Shards is the cycle's shard count (0 = no cycle yet).
	Shards int
	// ShardPipeline is each shard's generate→trait-filter duration.
	ShardPipeline []time.Duration
	// ShardRank has one entry per shard and reads zero: no shard ranks
	// on its own, the pool is ranked once inside Merge.
	ShardRank []time.Duration
	// Merge is the serial step after the shards: concatenating their
	// survivors and ranking the pool.
	Merge time.Duration
	// ShardCandidates is each shard's generated-candidate count.
	ShardCandidates []int
}

// CriticalPath is the cycle's ideal-parallel decide time: the slowest
// shard's pipeline plus the serial merge.
func (cs CycleStats) CriticalPath() time.Duration {
	var slowest time.Duration
	for _, d := range cs.ShardPipeline {
		slowest = max(slowest, d)
	}
	return slowest + cs.Merge
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

// shardOut is one shard's per-cycle pipeline result: its funnel counts
// and surviving candidates.
type shardOut struct {
	funnel core.Decision
	cands  []*core.Candidate
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
	return &Engine{shards: s, workers: w}
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

	// Per shard: generate → refine.
	outs := make([]shardOut, e.shards)
	e.runShards(func(s int) {
		started := time.Now()
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
		e.last.ShardPipeline[s] = time.Since(started)
	})
	n := 0
	for s := range outs {
		if err := outs[s].err; err != nil {
			return nil, err
		}
		d.Generated += outs[s].funnel.Generated
		d.AfterPreFilters += outs[s].funnel.AfterPreFilters
		d.AfterStatsFilter += outs[s].funnel.AfterStatsFilter
		d.AfterTraitFilter += outs[s].funnel.AfterTraitFilter
		n += len(outs[s].cands)
	}

	// Merge: rank the survivors, in shard order, with the serial pass's
	// call.
	started := time.Now()
	pool := make([]*core.Candidate, 0, n)
	for s := range outs {
		pool = append(pool, outs[s].cands...)
	}
	d.Ranked = cfg.Ranker.Rank(pool)
	e.last.Merge = time.Since(started)

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
