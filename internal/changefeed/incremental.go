package changefeed

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"autocomp/internal/core"
)

// Feed bundles one lake's incremental-observation state: the one index
// of table records behind the dirty-set tracker, the stats cache, and
// the retained candidate pool the incremental generator re-emits for
// clean tables. Build one with NewFeedSharded, have publishers call
// Feed.Publish, and wrap a service's connector/generator/observer with
// Connector, Generator, and Observer — the core pipeline then runs
// unmodified.
type Feed struct {
	// Tracker is the dirty-set view of the index.
	Tracker *Tracker
	// Cache is the version-keyed observation view of the index.
	Cache *StatsCache

	// ReconcileEvery runs a full enumeration every Nth cycle as a
	// safety net for missed events (a publisher detached, an event
	// dropped): every table is re-listed, re-generated, and — where the
	// cache was invalidated or the version moved — re-observed.
	// 0 disables reconciliation (cold-start full scan still happens).
	ReconcileEvery int

	// policy supplies trigger policies (nil = every commit).
	policy PolicyFunc
	idx    index

	// mu guards the cycle state below.
	mu    sync.Mutex
	cycle int64
	// full marks the current cycle as a full enumeration.
	full bool
	// scanned is the table list served to the generator this cycle.
	scanned  []core.Table
	lastPool int
}

// NewFeedSharded builds an empty feed with policy for triggers (nil =
// every commit) and the given reconciliation interval. Serial decide
// passes shards 1; a sharded decide plane passes its shard count, so the
// index stripes to match and decide shards generate and observe without
// cross-shard contention. Shard count is fixed per feed; policy
// hot-reload builds a fresh feed, which is why decide-shard changes only
// ever take effect at a cycle boundary.
func NewFeedSharded(policy PolicyFunc, reconcileEvery, shards int) *Feed {
	idx := newIndex(shards)
	return &Feed{
		Tracker:        &Tracker{idx: idx},
		Cache:          &StatsCache{idx: idx},
		ReconcileEvery: reconcileEvery,
		policy:         policy,
		idx:            idx,
	}
}

// Connector wraps full so Tables() serves only the dirty set between
// reconciling full scans. Use together with Generator on the same feed:
// the pair shares per-cycle state and must be called in lockstep, which
// core.Service.Decide does.
func (f *Feed) Connector(full core.Connector) *IncrementalConnector {
	return &IncrementalConnector{feed: f, Full: full}
}

// Generator wraps inner so Candidates() regenerates only the tables the
// connector served this cycle and re-emits retained candidates for the
// rest. The wrapper is also a core.ShardedGenerator: a sharded decide
// plane calls ShardCandidates per shard and each call works one index
// stripe.
func (f *Feed) Generator(inner core.Generator) *IncrementalGenerator {
	return &IncrementalGenerator{feed: f, Inner: inner}
}

// Observer wraps inner in a CachingObserver over the feed's cache.
// quota must be the quota source inner reads, or nil when inner sets
// none (see CachingObserver.Quota).
func (f *Feed) Observer(inner core.Observer, quota func(db string) float64) CachingObserver {
	return CachingObserver{Inner: inner, Cache: f.Cache, Quota: quota}
}

// beginCycle starts an observation cycle: a full enumeration at cold
// start and every ReconcileEvery-th cycle, the dirty set otherwise.
func (f *Feed) beginCycle(full core.Connector) []core.Table {
	f.mu.Lock()
	f.cycle++
	coldStart := f.cycle == 1
	doFull := coldStart ||
		(f.ReconcileEvery > 0 && f.cycle%int64(f.ReconcileEvery) == 0)
	f.full = doFull
	f.mu.Unlock()

	var ts []core.Table
	if doFull {
		ts = full.Tables()
		f.reconcile(ts)
	} else {
		ts = f.takeDirty()
	}
	f.mu.Lock()
	f.scanned = ts
	f.mu.Unlock()
	mode := "dirty"
	if doFull {
		mode = "full"
	}
	mScans.With(mode).Inc()
	mScannedTables.Set(float64(len(ts)))
	return ts
}

// notePool refreshes the emitted-pool accounting from the stripes'
// counts. It runs once per generated stripe; reading the counts under
// mu makes the last caller leave the exact totals.
func (f *Feed) notePool() {
	f.mu.Lock()
	defer f.mu.Unlock()
	var cands, tbls int64
	for _, st := range f.idx {
		cands += st.retained.Load()
		tbls += st.retainedTables.Load()
	}
	f.lastPool = int(cands)
	mPoolSize.Set(float64(cands))
	mRetainedTables.Set(float64(tbls))
}

// ScanInfo describes the feed's most recent observation cycle.
type ScanInfo struct {
	// Cycle is the 1-based cycle counter.
	Cycle int64
	// Full reports whether the cycle was a full enumeration.
	Full bool
	// Scanned is how many tables were served to the generator.
	Scanned int
	// Pool is the candidate-pool size the generator emitted.
	Pool int
}

// LastScan returns a snapshot of the most recent cycle.
func (f *Feed) LastScan() ScanInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return ScanInfo{Cycle: f.cycle, Full: f.full, Scanned: len(f.scanned), Pool: f.lastPool}
}

// ScannedNames returns the full names of the tables served in the most
// recent cycle, sorted (for logging and the runnable example).
func (f *Feed) ScannedNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.scanned))
	for i, t := range f.scanned {
		out[i] = t.FullName()
	}
	sort.Strings(out)
	return out
}

// IncrementalConnector serves the dirty set instead of the whole lake.
// Quota and clock queries pass through to the full connector.
type IncrementalConnector struct {
	feed *Feed
	// Full is the wrapped whole-lake connector, consulted for full
	// enumerations (cold start, reconciliation) and passthrough queries.
	Full core.Connector
}

// Tables implements core.Connector: the dirty tables mid-stream, the
// full enumeration at cold start and on reconcile cycles.
func (c *IncrementalConnector) Tables() []core.Table {
	return c.feed.beginCycle(c.Full)
}

// QuotaUtilization implements core.Connector.
func (c *IncrementalConnector) QuotaUtilization(db string) float64 {
	return c.Full.QuotaUtilization(db)
}

// Now implements core.Connector.
func (c *IncrementalConnector) Now() time.Duration { return c.Full.Now() }

// IncrementalGenerator regenerates candidates only for the tables the
// connector served this cycle, re-emitting every other table's retained
// candidates unchanged. With a state-deterministic inner generator this
// keeps the emitted pool set-equal to a full scan's (see the package
// doc for the exact parity conditions). The pool is emitted in no
// particular order: ranking orders by score, then candidate ID, a total
// order for unique IDs. It implements core.ShardedGenerator over the
// index's stripes.
type IncrementalGenerator struct {
	feed *Feed
	// Inner is the wrapped whole-lake generator.
	Inner core.Generator
}

// Name implements core.Generator.
func (g *IncrementalGenerator) Name() string { return "incremental(" + g.Inner.Name() + ")" }

// Candidates implements core.Generator. tables must be the list the
// paired IncrementalConnector returned this cycle; each stripe
// regenerates its own share of them, exactly as ShardCandidates does
// for one decide shard.
func (g *IncrementalGenerator) Candidates(tables []core.Table) []*core.Candidate {
	parts := make([][]core.Table, len(g.feed.idx))
	for _, t := range tables {
		s := core.ShardOf(t.FullName(), len(parts))
		parts[s] = append(parts[s], t)
	}
	var out []*core.Candidate
	for s := range parts {
		out = append(out, g.ShardCandidates(s, len(parts), parts[s])...)
	}
	return out
}

// ShardCandidates implements core.ShardedGenerator: one decide shard's
// slice of the incremental pool. tables must be the shard's partition
// (by core.ShardOf) of the list the paired connector returned this
// cycle; the call regenerates exactly those tables within the shard's
// stripe and emits every candidate the stripe retains: the fresh ones
// plus the remaining (clean) tables'. shards must be the count the feed
// was built with — the policy compiler builds feed and decide plane
// from the same count, so a mismatch is a wiring bug and panics.
func (g *IncrementalGenerator) ShardCandidates(shard, shards int, tables []core.Table) []*core.Candidate {
	f := g.feed
	if shards != len(f.idx) {
		panic(fmt.Sprintf("changefeed: ShardCandidates for %d decide shards on a feed built for %d", shards, len(f.idx)))
	}
	fresh := g.Inner.Candidates(tables)

	st := f.idx[shard]
	st.mu.Lock()
	// Replace the regenerated tables' candidates (a table whose state no
	// longer yields candidates drops out of the pool), keep the rest. A
	// table dropped since the connector served it has no record and
	// retains nothing. A fresh candidate takes over its work unit's
	// cached observation while that is at the table's current version,
	// so its observe is a hit served by its own stamp.
	for _, t := range tables {
		if r := st.tables[t.FullName()]; r != nil {
			st.releaseLocked(r)
		}
	}
	for _, c := range fresh {
		if r := st.tables[c.Table.FullName()]; r != nil {
			st.retainLocked(r, c)
			if v, ok := c.Table.(core.Versioned); ok {
				r.pool.adoptLocked(c, unitOf(c), v.Version())
			}
		}
	}
	out := make([]*core.Candidate, 0, st.retained.Load())
	for _, r := range st.tables {
		if r.pool != nil {
			out = append(out, r.pool.retained...)
		}
	}
	st.mu.Unlock()
	f.notePool()
	return out
}

// RetainedCount returns how many candidates the feed currently retains.
func (f *Feed) RetainedCount() int {
	var n int64
	for _, st := range f.idx {
		n += st.retained.Load()
	}
	return int(n)
}

// RetainedTables returns the sorted full names of the tables whose
// candidates the feed currently retains — the invariant surface scenario
// harnesses audit (a retained candidate must never reference a table
// that left the lake).
func (f *Feed) RetainedTables() []string {
	var out []string
	for _, st := range f.idx {
		st.mu.Lock()
		for name, r := range st.tables {
			if r.pool != nil && len(r.pool.retained) > 0 {
				out = append(out, name)
			}
		}
		st.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
