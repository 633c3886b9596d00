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

// cacheEntry is one work unit's cached observation: the stamp of the
// candidate whose Stats hold it. The Stats themselves stay in that
// candidate, so the entry carries only what the accounting needs.
type cacheEntry struct {
	unit  unit
	stamp *core.Stamp
}

// bind makes s vouch for c's Stats as the observation at version.
func bind(s *core.Stamp, c *core.Candidate, version int64) {
	s.Version = version
	s.Owner.Store(c)
	c.Stamp = s
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
// statistics keyed by table, work unit and table version. A cached
// observation is one record with the candidate that made it: the
// candidate keeps the Stats and a stamp, and each table's record keeps
// the stamps in a short slice, one per work unit, so a lookup scans only
// its own table's units. Commit events revoke a table's stamps in O(its
// units); version keying covers any invalidation that never arrives.
// Hits are counted on the index stripes, the rest in cache-level
// atomics; all are unchanged by striping. All methods are safe for
// concurrent use.
type StatsCache struct {
	idx     index
	misses  atomic.Int64
	entries atomic.Int64
}

// lookup serves candidate c's work unit u at version from the cache
// under one stripe lock: when the unit's cached observation is at
// version, c adopts it and lookup reports a hit. On a miss it returns the
// table's record and its invalidation epoch for put; a nil record means
// the table has left the index (dropped mid-cycle) and the observation
// is not cached.
func (sc *StatsCache) lookup(table string, c *core.Candidate, u unit, version int64) (bool, *tableRecord, int64) {
	st := sc.idx.of(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.tables[table]
	var epoch int64
	if r != nil {
		p := r.poolOf()
		if p.adoptLocked(c, u, version) {
			st.hits.Add(1)
			mCacheHits.Inc()
			return true, nil, 0
		}
		epoch = p.epoch
	}
	sc.misses.Add(1)
	mCacheMisses.Inc()
	return false, r, epoch
}

// put caches c's Stats as the observation of work unit u of table at
// version, unless r has left the index or an invalidation landed since
// lookup captured epoch. The unit's stamp passes to c, so it stops
// vouching for any other candidate's Stats.
func (sc *StatsCache) put(table string, r *tableRecord, epoch int64, u unit, version int64, c *core.Candidate) {
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
		bind(e.stamp, c, version)
		return
	}
	s := &core.Stamp{Hits: &st.hits}
	bind(s, c, version)
	r.pool.cached = append(r.pool.cached, cacheEntry{unit: u, stamp: s})
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
				if e.stamp.Version > max {
					max = e.stamp.Version
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
	var hits int64
	for _, st := range sc.idx {
		hits += st.hits.Load()
	}
	return CacheCounters{
		Hits:    hits,
		Misses:  sc.misses.Load(),
		Entries: int(sc.entries.Load()),
	}
}

// CachingObserver consults the stats cache before falling back to the
// full (expensive) observer. A candidate whose own stamp still holds at
// its table's version is a hit served from its Stats alone, with no
// index lookup; any other candidate looks its work unit up under the
// table's stripe lock and adopts another candidate's observation at
// that version, or misses, observes through Inner and is stamped with
// the result. A hit re-reads quota utilization. Tables that do not
// expose a version bypass the cache entirely. Observe fills c.Stats
// itself; calls for candidates of one table must not overlap, which
// holds for core's serial decide and for decideshard, whose shards
// partition tables.
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

// Observe implements core.Observer. Observations are keyed by the
// table's core.Versioned version: one stamped at an older version
// misses, so a missed invalidation degrades to a re-observation, never
// to serving stale statistics for a version-advancing change.
func (o CachingObserver) Observe(c *core.Candidate) (core.Stats, error) {
	v, ok := c.Table.(core.Versioned)
	if !ok || o.Cache == nil {
		return o.Inner.Observe(c)
	}
	// The version is read first, outside any lock: a version advance
	// landing before the lookup files the fresh stats under the older
	// version, which no later lookup asks for.
	version := v.Version()
	if s := c.Stamp; s != nil && s.Owner.Load() == c && s.Version == version {
		s.Hits.Add(1)
		mCacheHits.Inc()
	} else {
		// The lookup captures the invalidation epoch before the
		// observation, so an invalidation racing this observe drops the
		// put instead of caching pre-mutation stats under a
		// still-current version.
		table, u := c.Table.FullName(), unitOf(c)
		hit, r, epoch := o.Cache.lookup(table, c, u, version)
		if !hit {
			s, err := o.Inner.Observe(c)
			if err != nil {
				return s, err
			}
			c.Stats = s
			o.Cache.put(table, r, epoch, u, version, c)
			return s, nil
		}
	}
	if o.Quota != nil && c.Action == core.ActionDataCompaction {
		c.Stats.QuotaUtilization = o.Quota(c.Table.Database())
	}
	return c.Stats, nil
}
