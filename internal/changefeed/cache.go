package changefeed

import (
	"sync"
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

// cacheStripe is one lock-striped partition of the cache, holding the
// entries and invalidation epochs of the tables that hash to it.
type cacheStripe struct {
	mu sync.Mutex
	// tables maps table full name → candidate ID → entry, so a commit
	// event drops all of a table's entries without scanning the cache.
	tables map[string]map[string]cacheEntry
	// epochs counts invalidations per table. Writers capture the epoch
	// before observing and their Put is dropped if it advanced in the
	// meantime — otherwise a version-preserving mutation (fleet
	// compaction, metadata rewrite) racing an observation could
	// re-insert pre-mutation stats under the still-current version,
	// where no later version advance would ever evict them.
	epochs map[string]int64
}

// StatsCache caches observe-phase statistics keyed by (table, candidate
// ID, table version). Commit events invalidate a table's entries in
// O(1); version keying covers any invalidation that never arrives. All
// methods are safe for concurrent use. State is lock-striped by table
// name with the decide-shard hash (see the package doc), so the sharded
// decide plane's parallel observe fan-out misses and fills without
// serializing on one mutex; accounting lives in cache-level atomics and
// is unchanged by striping.
type StatsCache struct {
	stripes       []*cacheStripe
	hits, misses  atomic.Int64
	invalidations atomic.Int64
	entries       atomic.Int64
}

// NewStatsCacheSharded returns an empty cache partitioned across
// stripes lock stripes (min 1), aligned with the decide-shard mapping.
func NewStatsCacheSharded(stripes int) *StatsCache {
	if stripes < 1 {
		stripes = 1
	}
	sc := &StatsCache{stripes: make([]*cacheStripe, stripes)}
	for i := range sc.stripes {
		sc.stripes[i] = &cacheStripe{
			tables: make(map[string]map[string]cacheEntry),
			epochs: make(map[string]int64),
		}
	}
	return sc
}

func (sc *StatsCache) stripe(table string) *cacheStripe {
	return sc.stripes[core.ShardOf(table, len(sc.stripes))]
}

// Get returns the cached stats for candidate id of table at version, and
// whether the lookup hit.
func (sc *StatsCache) Get(table, id string, version int64) (core.Stats, bool) {
	st := sc.stripe(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.tables[table][id]; ok && e.version == version {
		sc.hits.Add(1)
		mCacheHits.Inc()
		mObservesSaved.Inc()
		return e.stats, true
	}
	sc.misses.Add(1)
	mCacheMisses.Inc()
	return core.Stats{}, false
}

// Put records the stats observed for candidate id of table at version.
func (sc *StatsCache) Put(table, id string, version int64, s core.Stats) {
	st := sc.stripe(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	sc.putLocked(st, table, id, version, s)
}

// putLocked inserts under st's lock, held by the caller.
func (sc *StatsCache) putLocked(st *cacheStripe, table, id string, version int64, s core.Stats) {
	m, ok := st.tables[table]
	if !ok {
		m = make(map[string]cacheEntry)
		st.tables[table] = m
	}
	if _, existed := m[id]; !existed {
		mCacheEntries.Set(float64(sc.entries.Add(1)))
	}
	m[id] = cacheEntry{version: version, stats: s}
}

// epoch returns the table's invalidation epoch.
func (sc *StatsCache) epoch(table string) int64 {
	st := sc.stripe(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epochs[table]
}

// putAt records the stats only if the table's invalidation epoch still
// equals epoch — the observation is discarded when an invalidation
// landed while it was in flight.
func (sc *StatsCache) putAt(table, id string, version, epoch int64, s core.Stats) {
	st := sc.stripe(table)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.epochs[table] != epoch {
		return
	}
	sc.putLocked(st, table, id, version, s)
}

// InvalidateTable drops every cached entry of the named table — wired to
// the bus so any commit (writer or maintenance) evicts the table's
// observations. Maintenance actions that mutate state without advancing
// the version (aggregate-model compactions, metadata rewrites) depend on
// this path; versioned commits would expire naturally.
func (sc *StatsCache) InvalidateTable(name string) {
	st := sc.stripe(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m, ok := st.tables[name]; ok {
		sc.entries.Add(int64(-len(m)))
		delete(st.tables, name)
	}
	st.epochs[name]++
	sc.invalidations.Add(1)
	mCacheInvalidations.Inc()
	mCacheEntries.Set(float64(sc.entries.Load()))
}

// Drop removes every trace of a table — entries and its invalidation
// epoch — when the table leaves the lake, so long-running services do
// not accrete state for dropped tables. An observation already in
// flight for the table may re-insert one entry (its captured epoch
// matches the reset one); the next full scan's RetainOnly prunes it.
func (sc *StatsCache) Drop(name string) {
	st := sc.stripe(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m, ok := st.tables[name]; ok {
		sc.entries.Add(int64(-len(m)))
		delete(st.tables, name)
	}
	delete(st.epochs, name)
	sc.invalidations.Add(1)
	mCacheInvalidations.Inc()
	mCacheEntries.Set(float64(sc.entries.Load()))
}

// RetainOnly drops every table not in keep — wired to reconciling full
// scans, whose enumeration is authoritative, so tables that vanished
// without a Dropped event do not leak cache state.
func (sc *StatsCache) RetainOnly(keep map[string]struct{}) {
	for _, st := range sc.stripes {
		st.mu.Lock()
		for name, m := range st.tables {
			if _, ok := keep[name]; !ok {
				sc.entries.Add(int64(-len(m)))
				delete(st.tables, name)
			}
		}
		for name := range st.epochs {
			if _, ok := keep[name]; !ok {
				delete(st.epochs, name)
			}
		}
		st.mu.Unlock()
	}
	mCacheEntries.Set(float64(sc.entries.Load()))
}

// MaxVersions returns, per cached table, the highest version any of its
// entries carries — the invariant surface scenario harnesses audit: a
// cached version beyond the table's live version would mean the cache is
// serving observations from a state the table never reached.
func (sc *StatsCache) MaxVersions() map[string]int64 {
	out := make(map[string]int64)
	for _, st := range sc.stripes {
		st.mu.Lock()
		for name, m := range st.tables {
			var max int64 = -1
			for _, e := range m {
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
	// The epoch is captured before the version and the observation, so
	// an invalidation racing this observe drops the Put below instead
	// of caching pre-mutation stats under a still-current version.
	epoch := o.Cache.epoch(table)
	version := v.Version()
	if s, hit := o.Cache.Get(table, id, version); hit {
		if o.Refresh != nil {
			o.Refresh(c, &s)
		}
		return s, nil
	}
	s, err := o.Inner.Observe(c)
	if err != nil {
		return s, err
	}
	o.Cache.putAt(table, id, version, epoch, s)
	return s, nil
}
