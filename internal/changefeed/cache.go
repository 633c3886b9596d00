package changefeed

import (
	"sync/atomic"
	"time"

	"autocomp/internal/core"
)

// cacheEntry is one cached observation.
type cacheEntry struct {
	version int64
	stats   core.Stats
}

// CacheCounters is a snapshot of the cache's accounting.
type CacheCounters struct {
	// Hits and Misses count CachingObserver lookups; Misses equals the
	// inner (expensive) Observe calls made.
	Hits, Misses int64
	// Invalidations counts per-table invalidations (commit events).
	Invalidations int64
	// Entries is the current number of cached observations.
	Entries int
}

// StatsCache is the stats-cache view of the feed's index: observe-phase
// statistics keyed by (table, candidate ID, table version). Commit
// events invalidate a table's entries in O(1); version keying covers any
// invalidation that never arrives. Accounting lives in cache-level
// atomics and is unchanged by striping. All methods are safe for
// concurrent use.
type StatsCache struct {
	idx           index
	hits, misses  atomic.Int64
	invalidations atomic.Int64
	entries       atomic.Int64
}

// lookup serves candidate id of table at version from the cache under
// one stripe lock. On a miss it returns the table's record and its
// invalidation epoch for put; a nil record means the table has left the
// index (dropped mid-cycle) and the observation is not cached.
func (sc *StatsCache) lookup(table, id string, version int64) (core.Stats, bool, *tableRecord, int64) {
	st := sc.idx.of(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.tables[table]
	var epoch int64
	if r != nil {
		p := r.poolOf()
		if e, ok := p.cached[id]; ok && e.version == version {
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

// put records the stats observed for candidate id of table at version,
// unless r has left the index or an invalidation landed since lookup
// captured epoch.
func (sc *StatsCache) put(table string, r *tableRecord, epoch int64, id string, version int64, s core.Stats) {
	if r == nil {
		return
	}
	st := sc.idx.of(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tables[table] != r || r.pool.epoch != epoch {
		return
	}
	if r.pool.cached == nil {
		r.pool.cached = make(map[string]cacheEntry)
	}
	if _, existed := r.pool.cached[id]; !existed {
		mCacheEntries.Set(float64(sc.entries.Add(1)))
	}
	r.pool.cached[id] = cacheEntry{version: version, stats: s}
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
		Hits:          sc.hits.Load(),
		Misses:        sc.misses.Load(),
		Invalidations: sc.invalidations.Load(),
		Entries:       int(sc.entries.Load()),
	}
}

// CachingObserver consults the stats cache before falling back to the
// full (expensive) observer: a hit serves the cached statistics with the
// time- and quota-dependent fields refreshed; a miss delegates to Inner
// and caches the result at the table's current version. Tables that do
// not expose a version bypass the cache entirely.
type CachingObserver struct {
	// Inner is the full observer consulted on a miss.
	Inner core.Observer
	// Cache holds prior observations.
	Cache *StatsCache
	// Refresh, when set, is called on every hit to update the fields a
	// fresh observation would derive from the current clock or from
	// state outside the table (TableAge, SinceLastWrite, quota
	// utilization) — required for byte-identical decision parity with a
	// full scan. It must mirror exactly what Inner sets.
	Refresh func(c *core.Candidate, s *core.Stats)
}

// StatsObserverRefresher returns a Refresh function mirroring
// core.StatsObserver: it recomputes the table ages from now, the write
// count from the table, and — when quota is non-nil — the tenant's
// quota utilization, the fields a fresh StatsObserver observation
// derives from outside the candidate's (unchanged) file set.
func StatsObserverRefresher(now func() time.Duration, quota func(db string) float64) func(*core.Candidate, *core.Stats) {
	return func(c *core.Candidate, s *core.Stats) {
		if now != nil {
			n := now()
			s.TableAge = n - c.Table.Created()
			s.SinceLastWrite = n - c.Table.LastWrite()
		}
		s.WriteCount = c.Table.WriteCount()
		if quota != nil {
			s.QuotaUtilization = quota(c.Table.Database())
		}
	}
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
	table, id := c.Table.FullName(), c.ID()
	// The lookup captures the invalidation epoch before the observation,
	// so an invalidation racing this observe drops the put instead of
	// caching pre-mutation stats under a still-current version. The
	// version is read first, outside the stripe lock: a version advance
	// landing in between files the fresh stats under the older version,
	// which no later lookup asks for.
	version := v.Version()
	s, hit, r, epoch := o.Cache.lookup(table, id, version)
	if hit {
		if o.Refresh != nil {
			o.Refresh(c, &s)
		}
		return s, nil
	}
	s, err := o.Inner.Observe(c)
	if err != nil {
		return s, err
	}
	o.Cache.put(table, r, epoch, id, version, s)
	return s, nil
}
