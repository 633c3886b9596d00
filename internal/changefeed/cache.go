package changefeed

import (
	"sync/atomic"

	"autocomp/internal/core"
)

// unit identifies a work unit within one table: exactly what
// Candidate.ID distinguishes beyond the table's name.
type unit struct {
	action    core.ActionType
	scope     core.Scope
	partition string // set for core.ScopePartition only
}

// unitOf returns c's work unit.
func unitOf(c *core.Candidate) unit {
	u := unit{action: c.Action, scope: c.Scope}
	if c.Scope == core.ScopePartition {
		u.partition = c.Partition
	}
	return u
}

// cacheEntry is one cached observation: a work unit's statistics at a
// table version.
type cacheEntry struct {
	unit    unit
	version int64
	stats   core.Stats
}

// CacheCounters is a snapshot of the cache's accounting.
type CacheCounters struct {
	// Hits and Misses count CachingObserver lookups; Misses equals the
	// inner (expensive) Observe calls made.
	Hits, Misses int64
	// Entries is the current number of cached observations.
	Entries int
}

// StatsCache is the stats-cache view of the feed's index: observe-phase
// statistics keyed by table, work unit and table version. Each table's
// record holds its observations in a short slice, one entry per work
// unit, so a lookup scans only its own table's units. Commit events
// invalidate a table's entries in O(1); version keying covers any
// invalidation that never arrives. Accounting lives in cache-level
// atomics and is unchanged by striping. All methods are safe for
// concurrent use.
type StatsCache struct {
	idx          index
	hits, misses atomic.Int64
	entries      atomic.Int64
}

// lookup serves work unit u of table at version from the cache under
// one stripe lock. On a miss it returns the table's record and its
// invalidation epoch for put; a nil record means the table has left the
// index (dropped mid-cycle) and the observation is not cached.
func (sc *StatsCache) lookup(table string, u unit, version int64) (core.Stats, bool, *tableRecord, int64) {
	st := sc.idx.of(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.tables[table]
	var epoch int64
	if r != nil {
		p := r.poolOf()
		if e := p.entry(u); e != nil && e.version == version {
			sc.hits.Add(1)
			mCacheHits.Inc()
			mObservesSaved.Inc()
			return e.stats, true, nil, 0
		}
		epoch = p.epoch
	}
	sc.misses.Add(1)
	mCacheMisses.Inc()
	return core.Stats{}, false, r, epoch
}

// put records the stats observed for work unit u of table at version,
// unless r has left the index or an invalidation landed since lookup
// captured epoch.
func (sc *StatsCache) put(table string, r *tableRecord, epoch int64, u unit, version int64, s core.Stats) {
	if r == nil {
		return
	}
	st := sc.idx.of(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tables[table] != r || r.pool.epoch != epoch {
		return
	}
	if e := r.pool.entry(u); e != nil {
		e.version, e.stats = version, s
		return
	}
	r.pool.cached = append(r.pool.cached, cacheEntry{unit: u, version: version, stats: s})
	mCacheEntries.Set(float64(sc.entries.Add(1)))
}

// MaxVersions returns, per cached table, the highest version any of its
// entries carries — the invariant surface scenario harnesses audit: a
// cached version beyond the table's live version would mean the cache is
// serving observations from a state the table never reached.
func (sc *StatsCache) MaxVersions() map[string]int64 {
	out := make(map[string]int64)
	for _, st := range sc.idx {
		st.mu.Lock()
		for name, r := range st.tables {
			if r.pool == nil || len(r.pool.cached) == 0 {
				continue
			}
			var max int64 = -1
			for _, e := range r.pool.cached {
				if e.version > max {
					max = e.version
				}
			}
			out[name] = max
		}
		st.mu.Unlock()
	}
	return out
}

// Counters returns a snapshot of the cache accounting.
func (sc *StatsCache) Counters() CacheCounters {
	return CacheCounters{
		Hits:    sc.hits.Load(),
		Misses:  sc.misses.Load(),
		Entries: int(sc.entries.Load()),
	}
}

// CachingObserver consults the stats cache before falling back to the
// full (expensive) observer: a hit serves the cached statistics with
// quota utilization re-read, a miss delegates to Inner and caches the
// result at the table's current version. Tables that do not expose a
// version bypass the cache entirely.
type CachingObserver struct {
	// Inner is the full observer consulted on a miss.
	Inner core.Observer
	// Cache holds prior observations.
	Cache *StatsCache
	// Quota, when set, supplies the per-database quota utilization a hit
	// re-reads for data-compaction candidates: quota is the one observed
	// statistic that moves without the table's version. It must be the
	// source Inner reads; maintenance observers leave quota zero.
	Quota func(db string) float64
}

// Observe implements core.Observer. Entries are keyed by the table's
// core.Versioned version: an entry recorded at an older version misses,
// so a missed invalidation degrades to a re-observation, never to
// serving stale statistics for a version-advancing change.
func (o CachingObserver) Observe(c *core.Candidate) (core.Stats, error) {
	v, ok := c.Table.(core.Versioned)
	if !ok || o.Cache == nil {
		return o.Inner.Observe(c)
	}
	table, u := c.Table.FullName(), unitOf(c)
	// The lookup captures the invalidation epoch before the observation,
	// so an invalidation racing this observe drops the put instead of
	// caching pre-mutation stats under a still-current version. The
	// version is read first, outside the stripe lock: a version advance
	// landing in between files the fresh stats under the older version,
	// which no later lookup asks for.
	version := v.Version()
	s, hit, r, epoch := o.Cache.lookup(table, u, version)
	if hit {
		if o.Quota != nil && c.Action == core.ActionDataCompaction {
			s.QuotaUtilization = o.Quota(c.Table.Database())
		}
		return s, nil
	}
	s, err := o.Inner.Observe(c)
	if err != nil {
		return s, err
	}
	o.Cache.put(table, r, epoch, u, version, s)
	return s, nil
}
