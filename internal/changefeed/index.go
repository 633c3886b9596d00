package changefeed

import (
	"sync"
	"sync/atomic"

	"autocomp/internal/core"
)

// tableRecord is everything the feed knows about one table: the trigger
// state the dirty set is made of and, once the table has been generated
// with candidates or observed, its pool state.
type tableRecord struct {
	ref            core.Table
	pendingCommits int64
	pendingBytes   int64
	// pool is nil until the table is first generated with candidates or
	// observed, so a table that is only tracked costs no more than its
	// trigger state.
	pool  *poolState
	dirty bool
}

// poolState is the part of a table's record the decide cycle fills.
type poolState struct {
	// epoch counts the table's cache invalidations. An observation
	// captures it before observing and its put is dropped if it advanced
	// in the meantime — otherwise a version-preserving mutation (fleet
	// compaction, metadata rewrite) racing an observation could re-insert
	// pre-mutation stats under the still-current version, where no later
	// version advance would ever evict them.
	epoch int64
	// cached holds one observation per work unit, in the order the
	// units were first observed: the stamp of the candidate holding it.
	cached []cacheEntry
	// retained holds the candidates emitted at the table's last
	// (re)generation; clean tables re-enter the pool from here and are
	// served by their stamps.
	retained []*core.Candidate
}

// entry returns the cached observation of work unit u, or nil.
func (p *poolState) entry(u unit) *cacheEntry {
	for i := range p.cached {
		if p.cached[i].unit == u {
			return &p.cached[i]
		}
	}
	return nil
}

// adoptLocked hands c work unit u's cached observation when it is at
// version: c takes the Stats of the candidate the unit's stamp vouches
// for, and the stamp with them. It reports whether there was one to
// take. The caller holds the stripe lock.
func (p *poolState) adoptLocked(c *core.Candidate, u unit, version int64) bool {
	e := p.entry(u)
	if e == nil || e.stamp.Version != version {
		return false
	}
	c.Stats = e.stamp.Owner.Load().Stats
	bind(e.stamp, c, version)
	return true
}

// revokeLocked drops the cached observations, revoking their stamps,
// and returns how many it dropped. The caller holds the stripe lock.
func (p *poolState) revokeLocked() int {
	for _, e := range p.cached {
		e.stamp.Owner.Store(nil)
	}
	n := len(p.cached)
	p.cached = nil
	return n
}

// poolOf returns r's pool state, allocating it on first use.
func (r *tableRecord) poolOf() *poolState {
	if r.pool == nil {
		r.pool = &poolState{}
	}
	return r.pool
}

// stripe is one lock-striped partition of the index: the records of the
// tables core.ShardOf maps onto it.
type stripe struct {
	mu     sync.Mutex
	tables map[string]*tableRecord
	// dropped tombstones tables removed from the lake with their Ref at
	// drop time: a commit that raced the drop (its publisher read the
	// hook before detachment) must not resurrect the deleted table, but a
	// new table created under the same name must register. Tombstones
	// are cleared by the next full scan.
	dropped map[string]core.Table
	// retained and retainedTables count the stripe's retained candidates
	// and the tables holding any. They are written under mu and read
	// without it, so pool accounting never takes a stripe lock.
	retained, retainedTables atomic.Int64
	// hits counts the stats-cache hits on the stripe's tables. A hit
	// served by a stamp adds to it without the lock, and only the decide
	// shard that owns the stripe does, so shards never share a counter.
	hits atomic.Int64
}

// retainLocked appends c to r's retained candidates.
func (st *stripe) retainLocked(r *tableRecord, c *core.Candidate) {
	p := r.poolOf()
	if len(p.retained) == 0 {
		st.retainedTables.Add(1)
	}
	p.retained = append(p.retained, c)
	st.retained.Add(1)
}

// releaseLocked empties r's retained candidates.
func (st *stripe) releaseLocked(r *tableRecord) {
	if p := r.pool; p != nil && len(p.retained) > 0 {
		st.retained.Add(-int64(len(p.retained)))
		st.retainedTables.Add(-1)
		p.retained = nil
	}
}

// index is the feed's one lock-striped map of table records. Its layout
// is fixed at construction; each stripe's contents have their own lock.
type index []*stripe

func newIndex(stripes int) index {
	idx := make(index, max(stripes, 1))
	for i := range idx {
		idx[i] = &stripe{
			tables:  make(map[string]*tableRecord),
			dropped: make(map[string]core.Table),
		}
	}
	return idx
}

// of returns the stripe holding the named table.
func (idx index) of(name string) *stripe { return idx[core.ShardOf(name, len(idx))] }

// Publish is the feed's one entry point for commit events, safe for
// concurrent use. Under the table's stripe lock it forgets a dropped
// table, or registers the table, invalidates its cached observations
// and folds the commit into its trigger: pending activity accumulates
// until the table's trigger policy fires, at which point the table
// turns dirty and the accumulators reset. Maintenance events dirty the
// table immediately (its state changed under the system's own hands;
// the retained candidate must refresh).
func (f *Feed) Publish(e Event) {
	f.Tracker.events.Add(1)
	mEvents.Inc()
	st := f.idx.of(e.Table)
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.tables[e.Table]
	if e.Dropped {
		var ref core.Table
		if r != nil {
			ref = r.ref
			f.forgetLocked(st, r)
			delete(st.tables, e.Table)
		}
		st.dropped[e.Table] = ref
		mCacheEntries.Set(float64(f.Cache.entries.Load()))
		return
	}
	if ref, gone := st.dropped[e.Table]; gone {
		if e.Ref == nil || e.Ref == ref {
			return // a commit that raced the drop: the table is deleted
		}
		delete(st.dropped, e.Table) // a new table under the dropped name
	}
	if r == nil {
		r = &tableRecord{}
		st.tables[e.Table] = r
	}
	if e.Ref != nil {
		r.ref = e.Ref
	}
	if p := r.pool; p != nil {
		f.Cache.entries.Add(-int64(p.revokeLocked()))
		p.epoch++
	}
	mCacheEntries.Set(float64(f.Cache.entries.Load()))
	if !e.Maintenance {
		r.pendingCommits += max(e.Commits, 1)
		r.pendingBytes += e.Bytes
		pol := TriggerPolicy{}
		if f.policy != nil && r.ref != nil {
			pol = f.policy(r.ref)
		}
		if r.pendingCommits < max(pol.EveryCommits, 1) &&
			(pol.BytesWritten <= 0 || r.pendingBytes < pol.BytesWritten) {
			return
		}
	}
	r.pendingCommits, r.pendingBytes = 0, 0
	f.Tracker.markDirtyLocked(r)
}

// forgetLocked takes r's dirty flag, cached observations and retained
// candidates out of the accounting and revokes its stamps; the caller
// deletes r from st.
func (f *Feed) forgetLocked(st *stripe, r *tableRecord) {
	if r.dirty {
		mDirtyTables.Set(float64(f.Tracker.dirtyNow.Add(-1)))
	}
	if r.pool != nil {
		f.Cache.entries.Add(-int64(r.pool.revokeLocked()))
		st.releaseLocked(r)
	}
}

// reconcile absorbs a full enumeration — cold start or a reconciling
// scan — in one pass over the stripes. The enumeration is
// authoritative: every listed table is registered with its dirty flag
// and pending accumulation cleared (the scan observes it now), tables
// absent from it are forgotten (dropped from the lake without a Dropped
// event), and drop tombstones are cleared (a reused name is a
// legitimately new table from here on).
func (f *Feed) reconcile(ts []core.Table) {
	listed := make([][]core.Table, len(f.idx))
	for _, t := range ts {
		s := core.ShardOf(t.FullName(), len(f.idx))
		listed[s] = append(listed[s], t)
	}
	for i, st := range f.idx {
		st.mu.Lock()
		clear(st.dropped)
		kept := make(map[string]*tableRecord, len(listed[i]))
		for _, t := range listed[i] {
			name := t.FullName()
			r := st.tables[name]
			if r == nil {
				r = &tableRecord{}
			}
			if r.dirty {
				r.dirty = false
				f.Tracker.dirtyNow.Add(-1)
			}
			r.ref, r.pendingCommits, r.pendingBytes = t, 0, 0
			kept[name] = r
		}
		for name, r := range st.tables {
			if _, ok := kept[name]; !ok {
				f.forgetLocked(st, r)
			}
		}
		st.tables = kept
		st.mu.Unlock()
	}
	mDirtyTables.Set(float64(f.Tracker.dirtyNow.Load()))
	mCacheEntries.Set(float64(f.Cache.entries.Load()))
}

// takeDirty returns the dirty tables and clears their dirty flags — the
// observation cycle consumes the dirt it is about to observe. Tables
// whose reference is unknown (events without a Ref) stay dirty until a
// reconciling full scan supplies one. A cycle that fails after taking
// (an observer error aborting Decide) does not lose information:
// candidate regeneration precedes observation, so the taken tables'
// fresh candidates are already retained and their next observation is a
// cache miss.
func (f *Feed) takeDirty() []core.Table {
	var out []core.Table
	for _, st := range f.idx {
		st.mu.Lock()
		for _, r := range st.tables {
			if r.dirty && r.ref != nil {
				r.dirty = false
				f.Tracker.dirtyNow.Add(-1)
				out = append(out, r.ref)
			}
		}
		st.mu.Unlock()
	}
	mDirtyTables.Set(float64(f.Tracker.dirtyNow.Load()))
	return out
}
