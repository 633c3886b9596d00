// Package changefeed is AutoComp's incremental observation plane: a
// feed that table writers publish commit events to, per-table dirty-set
// tracking with declarative trigger policies, a stats cache keyed by
// table version, and connector/generator/observer wrappers that feed
// only changed tables into the existing filter→orient→decide→act
// pipeline — the pipeline itself runs unmodified.
//
// The full-scan OODA loop re-enumerates and re-observes the entire
// fleet every cycle, O(tables) per cycle regardless of activity. The
// paper's LinkedIn deployment avoids this by reacting to table activity
// instead of polling everything (§5's event-driven deployment mode);
// transformation-embedded designs fold reorganization into the write
// path the same way (Mycelium, arXiv 2506.08923), and the LSM
// compaction design-space analysis (arXiv 2202.04522) names trigger
// granularity as a first-class design axis. This package makes that
// axis explicit: a TriggerPolicy decides how much write activity
// promotes a table into the dirty set, and only dirty tables are
// re-observed.
//
// Decision equivalence: with every-commit triggering
// (TriggerPolicy.EveryCommits = 1) and a state-deterministic generator
// (one whose output for a table depends only on the table's current
// state, like the table-scope and maintenance generators), the
// incremental pipeline produces the same post-filter candidate pool —
// and therefore the same ranked, selected plan — as a full scan,
// byte-identical per seed. Clean tables' candidates are re-emitted from
// the retained pool with stats served from the version-keyed cache;
// dirty tables are regenerated and re-observed. Lazier trigger policies
// (EveryCommits > 1, byte thresholds) keep written-but-untriggered
// tables out of the dirty set — their candidates are not regenerated
// and the plan churns less — but the version-keyed cache still
// re-observes them on their next pool appearance (correctness and
// missed-event self-healing are never traded away); the observe-call
// savings come from the tables with no activity at all, the dominant
// population in a mostly-cold fleet. Time-windowed generators (e.g.
// snapshot scope) need every-cycle regeneration and are outside the
// parity guarantee.
//
// One index: the feed keeps everything it knows about a table — its
// reference, pending trigger activity, dirty flag, cache invalidation
// epoch, retained candidates and the stamps of their observations — in
// one record, and the records in one map striped S ways by core.ShardOf
// on the table name. That is the hash the sharded decide plane
// (internal/decideshard) partitions tables with, so a decide shard
// generates and observes on a stripe no other shard touches and the
// decide fan-out never serializes on a global mutex. A commit event is
// handled under one stripe lock that both advances the table's trigger
// and invalidates its cached observations; a drop is one delete plus a
// tombstone; a reconciling full scan is one pass over the stripes.
// Tracker and StatsCache are accounting views over the index whose
// counters aggregate across stripes. NewFeedSharded sizes the stripe
// count from the decide shard count; a serial pipeline passes 1.
//
// One record per observation: a retained candidate and its cache entry
// are the same record. The candidate keeps the Stats of its last
// observation and a core.Stamp holding the table version they were
// observed at; the table's record keeps one stamp per work unit, which
// the table's next invalidation revokes, and regeneration hands a
// still-valid stamp and its Stats to the fresh candidate of the same
// work unit. A clean table's candidate is therefore a cache hit served
// from its own stamp and its table's version, with no index lookup, so
// decide's per-cycle cost follows the trigger (the dirty tables plus
// one version check per retained candidate), not a lookup per retained
// candidate.
package changefeed

import (
	"sync/atomic"

	"autocomp/internal/core"
)

// Event is one table-commit notification published to a Feed. Writers
// (lst transactions, fleet writer commits, daily organic growth) publish
// one event per commit batch; maintenance executors publish events with
// Maintenance set so consumers can distinguish work the system did from
// work users caused.
type Event struct {
	// Table is the full table name (database.table).
	Table string
	// Ref is the committed table itself, when the publisher has it. The
	// feed uses it to hand dirty tables straight to the candidate
	// generator without a catalog lookup, and to tell a commit that
	// raced a drop from a new table created under the dropped name.
	Ref core.Table
	// Commits is how many commits the event covers (batched publishers
	// fold a day of commits into one event).
	Commits int64
	// Bytes is the data volume the commit(s) added.
	Bytes int64
	// Maintenance marks state changes made by maintenance actions
	// (compaction, expiry, checkpoint, manifest rewrite) rather than
	// user writers. Maintenance events bypass trigger accumulation: the
	// table is re-observed once so its refreshed state replaces the
	// stale candidate, regardless of how lazy the trigger policy is.
	Maintenance bool
	// Dropped marks the table's removal from the lake: the feed forgets
	// it (dirty state, cached stats, retained candidates) instead of
	// accumulating. Reconciling full scans also prune tables absent
	// from the enumeration, for publishers that cannot signal drops.
	Dropped bool
}

// TriggerPolicy decides how much accumulated write activity promotes a
// table into the dirty set — the trigger-granularity axis of the LSM
// compaction design space (arXiv 2202.04522). The zero value triggers
// on every commit.
type TriggerPolicy struct {
	// EveryCommits fires the trigger once this many commits accumulate
	// since the table was last taken for observation (min 1: every
	// commit). 1 preserves full-scan decision parity.
	EveryCommits int64
	// BytesWritten, when positive, also fires the trigger once this many
	// bytes accumulate — so a single huge commit on a lazy table does
	// not wait out the commit counter.
	BytesWritten int64
}

// PolicyFunc supplies the trigger policy for a table. Implementations
// must be cheap; the feed consults it on every writer event.
type PolicyFunc func(t core.Table) TriggerPolicy

// StaticTriggers applies one trigger policy to every table.
func StaticTriggers(p TriggerPolicy) PolicyFunc {
	return func(core.Table) TriggerPolicy { return p }
}

// Tracker is the dirty-set view of the feed's index: which tables have
// seen enough activity (per their trigger policy) since their last
// observation to need re-observing. Its counters are tracker-level
// atomics, so striping never changes what the accessors report. All
// methods are safe for concurrent use.
type Tracker struct {
	idx index

	events    atomic.Int64
	triggered atomic.Int64
	// dirtyNow mirrors the current dirty-set size incrementally so the
	// telemetry gauge never needs an O(tables) recount on the event path.
	dirtyNow atomic.Int64
}

// markDirtyLocked promotes r into the dirty set (no-op when already
// dirty), maintaining the promotion counter and the telemetry gauge.
// The caller holds r's stripe lock.
func (tr *Tracker) markDirtyLocked(r *tableRecord) {
	if r.dirty {
		return
	}
	r.dirty = true
	tr.triggered.Add(1)
	mTriggered.Inc()
	mDirtyTables.Set(float64(tr.dirtyNow.Add(1)))
}

// Redirty marks a known table dirty regardless of its trigger policy —
// the conflict-retry path: a job that exhausted its attempts leaves the
// table unmaintained, so it must be reconsidered next cycle even if no
// further writer activity crosses the trigger.
func (tr *Tracker) Redirty(name string) {
	st := tr.idx.of(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if r, ok := st.tables[name]; ok {
		tr.markDirtyLocked(r)
	}
}

// DirtyCount returns how many tables are currently dirty.
func (tr *Tracker) DirtyCount() int { return int(tr.dirtyNow.Load()) }

// KnownCount returns how many tables the tracker has seen.
func (tr *Tracker) KnownCount() int {
	n := 0
	for _, st := range tr.idx {
		st.mu.Lock()
		n += len(st.tables)
		st.mu.Unlock()
	}
	return n
}

// Events returns how many events the tracker has handled; Triggered
// returns how many dirty-set promotions those events caused.
func (tr *Tracker) Events() int64 { return tr.events.Load() }

// Triggered returns how many times a table was promoted into the dirty
// set (by trigger fire, maintenance event, or Redirty).
func (tr *Tracker) Triggered() int64 { return tr.triggered.Load() }
