// Package changefeed is AutoComp's incremental observation plane: a
// commit-event bus that table writers publish to, per-table dirty-set
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
// Lock striping: the tracker and the stats cache partition their state
// across S stripes keyed by core.ShardOf on the table name — the same
// hash the sharded decide plane (internal/decideshard) partitions
// tables with, so a decide shard's observations land on stripes no
// other shard is writing and the decide fan-out never serializes on a
// global mutex. Striping is invisible at the API: every method keeps
// its exact single-lock semantics (TakeDirty still returns the dirty
// set sorted by name, counters still aggregate). NewFeedSharded sizes
// every stripe count from the decide shard count; a serial pipeline
// passes 1 and gets one stripe.
package changefeed

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autocomp/internal/core"
)

// Event is one table-commit notification published on the Bus. Writers
// (lst transactions, fleet writer commits, daily organic growth) publish
// one event per commit batch; maintenance executors publish events with
// Maintenance set so consumers can distinguish work the system did from
// work users caused.
type Event struct {
	// Table is the full table name (database.table).
	Table string
	// Ref is the committed table itself, when the publisher has it. The
	// tracker uses it to hand dirty tables straight to the candidate
	// generator without a catalog lookup.
	Ref core.Table
	// Version is the table's metadata version after the commit.
	Version int64
	// Commits is how many commits the event covers (batched publishers
	// fold a day of commits into one event).
	Commits int64
	// Bytes is the data volume the commit(s) added.
	Bytes int64
	// At is the virtual publish time.
	At time.Duration
	// Maintenance marks state changes made by maintenance actions
	// (compaction, expiry, checkpoint, manifest rewrite) rather than
	// user writers. Maintenance events bypass trigger accumulation: the
	// table is re-observed once so its refreshed state replaces the
	// stale candidate, regardless of how lazy the trigger policy is.
	Maintenance bool
	// Dropped marks the table's removal from the lake: subscribers
	// forget it (dirty state, cached stats, retained candidates)
	// instead of accumulating. Reconciling full scans also prune
	// tables absent from the enumeration, for publishers that cannot
	// signal drops.
	Dropped bool
}

// Bus is a synchronous publish/subscribe channel for commit events.
// Publish delivers to every subscriber in subscription order, on the
// publisher's goroutine. Subscribers must not block and must take their
// own locks; publishers must not hold locks a subscriber needs.
type Bus struct {
	mu        sync.Mutex
	subs      []func(Event)
	published int64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers fn for every subsequent Publish.
func (b *Bus) Subscribe(fn func(Event)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, fn)
}

// Publish delivers e to every subscriber.
func (b *Bus) Publish(e Event) {
	b.mu.Lock()
	subs := b.subs
	b.published++
	b.mu.Unlock()
	mEvents.Inc()
	for _, fn := range subs {
		fn(e)
	}
}

// Published returns how many events have been published.
func (b *Bus) Published() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published
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
// must be cheap; the tracker consults it on every event.
type PolicyFunc func(t core.Table) TriggerPolicy

// StaticTriggers applies one trigger policy to every table.
func StaticTriggers(p TriggerPolicy) PolicyFunc {
	return func(core.Table) TriggerPolicy { return p }
}

// tableState is the tracker's per-table record.
type tableState struct {
	ref            core.Table
	pendingCommits int64
	pendingBytes   int64
	dirty          bool
}

// trackerStripe is one lock-striped partition of the tracker's state.
// A table's stripe is core.ShardOf(name, stripes), so concurrent event
// handling and decide-shard fan-out contend only within a stripe.
type trackerStripe struct {
	mu     sync.Mutex
	tables map[string]*tableState
	// dropped tombstones tables removed from the lake: a commit event
	// racing the drop (its publisher read the hook before detachment)
	// must not resurrect tracker state for a deleted table. Tombstones
	// are cleared by the next authoritative full scan.
	dropped map[string]struct{}
}

// Tracker maintains the per-table dirty set: which tables have seen
// enough activity (per their trigger policy) since their last
// observation to need re-observing. It is a Bus subscriber; all methods
// are safe for concurrent use. State is lock-striped by table name
// (see the package doc); counters are tracker-level atomics so striping
// never changes what the accessors report.
type Tracker struct {
	policy  PolicyFunc
	stripes []*trackerStripe

	events    atomic.Int64
	triggered atomic.Int64
	// dirtyNow mirrors the current dirty-set size incrementally so the
	// telemetry gauge never needs an O(tables) recount on the event path.
	dirtyNow atomic.Int64
}

// NewTrackerSharded returns a tracker using policy (nil = every commit)
// whose state is partitioned across stripes lock stripes (min 1),
// aligned with the decide-shard mapping.
func NewTrackerSharded(policy PolicyFunc, stripes int) *Tracker {
	if stripes < 1 {
		stripes = 1
	}
	tr := &Tracker{policy: policy, stripes: make([]*trackerStripe, stripes)}
	for i := range tr.stripes {
		tr.stripes[i] = &trackerStripe{
			tables:  make(map[string]*tableState),
			dropped: make(map[string]struct{}),
		}
	}
	return tr
}

func (tr *Tracker) stripe(name string) *trackerStripe {
	return tr.stripes[core.ShardOf(name, len(tr.stripes))]
}

// markDirtyLocked promotes s into the dirty set (no-op when already
// dirty), maintaining the promotion counter and the telemetry gauge.
// The caller holds the stripe lock owning s.
func (tr *Tracker) markDirtyLocked(s *tableState) {
	if s.dirty {
		return
	}
	s.dirty = true
	tr.triggered.Add(1)
	mTriggered.Inc()
	mDirtyTables.Set(float64(tr.dirtyNow.Add(1)))
}

// HandleEvent folds one commit event into the dirty-set state: pending
// activity accumulates until the table's trigger policy fires, at which
// point the table turns dirty and the accumulators reset. Maintenance
// events dirty the table immediately (its state changed under the
// system's own hands; the retained candidate must refresh).
func (tr *Tracker) HandleEvent(e Event) {
	tr.events.Add(1)
	st := tr.stripe(e.Table)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.Dropped {
		if s, ok := st.tables[e.Table]; ok && s.dirty {
			mDirtyTables.Set(float64(tr.dirtyNow.Add(-1)))
		}
		delete(st.tables, e.Table)
		st.dropped[e.Table] = struct{}{}
		return
	}
	if _, gone := st.dropped[e.Table]; gone {
		// A commit that raced the drop: the table is deleted; ignore.
		return
	}
	s := st.ensureLocked(e.Table, e.Ref)
	if e.Maintenance {
		s.pendingCommits, s.pendingBytes = 0, 0
		tr.markDirtyLocked(s)
		return
	}
	commits := e.Commits
	if commits < 1 {
		commits = 1
	}
	s.pendingCommits += commits
	s.pendingBytes += e.Bytes
	pol := TriggerPolicy{}
	if tr.policy != nil && s.ref != nil {
		pol = tr.policy(s.ref)
	}
	every := pol.EveryCommits
	if every < 1 {
		every = 1
	}
	fire := s.pendingCommits >= every ||
		(pol.BytesWritten > 0 && s.pendingBytes >= pol.BytesWritten)
	if fire {
		s.pendingCommits, s.pendingBytes = 0, 0
		tr.markDirtyLocked(s)
	}
}

func (st *trackerStripe) ensureLocked(name string, ref core.Table) *tableState {
	s, ok := st.tables[name]
	if !ok {
		s = &tableState{}
		st.tables[name] = s
	}
	if ref != nil {
		s.ref = ref
	}
	return s
}

// TakeDirty returns the dirty tables sorted by name and clears their
// dirty flags — the observation cycle consumes the dirt it is about to
// observe. Tables whose reference is unknown (events without a Ref)
// stay dirty until a reconciling full scan supplies one. A cycle that
// fails after taking (an observer error aborting Decide) does not lose
// information: candidate regeneration precedes observation, so the
// taken tables' fresh candidates are already retained and their next
// observation is a cache miss.
func (tr *Tracker) TakeDirty() []core.Table {
	type taken struct {
		name string
		ref  core.Table
	}
	var all []taken
	for _, st := range tr.stripes {
		st.mu.Lock()
		for name, s := range st.tables {
			if s.dirty && s.ref != nil {
				s.dirty = false
				tr.dirtyNow.Add(-1)
				all = append(all, taken{name: name, ref: s.ref})
			}
		}
		st.mu.Unlock()
	}
	mDirtyTables.Set(float64(tr.dirtyNow.Load()))
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	out := make([]core.Table, len(all))
	for i := range all {
		out[i] = all[i].ref
	}
	return out
}

// NoteFullScan absorbs a full enumeration — cold start or a
// reconciling scan. The enumeration is authoritative: every listed
// table is registered with its dirty flag and pending accumulation
// cleared (the scan observes it now), and tables absent from the list
// are forgotten (dropped from the lake without a Dropped event).
func (tr *Tracker) NoteFullScan(ts []core.Table) {
	perStripe := make([][]core.Table, len(tr.stripes))
	for _, t := range ts {
		s := core.ShardOf(t.FullName(), len(tr.stripes))
		perStripe[s] = append(perStripe[s], t)
	}
	for i, st := range tr.stripes {
		st.mu.Lock()
		// The enumeration supersedes drop tombstones: a reused name is a
		// legitimately new table from here on.
		st.dropped = make(map[string]struct{})
		listed := make(map[string]struct{}, len(perStripe[i]))
		for _, t := range perStripe[i] {
			listed[t.FullName()] = struct{}{}
		}
		// Every survivor is cleared and every absentee deleted, so the
		// stripe leaves the dirty set entirely.
		var cleared int64
		for name, s := range st.tables {
			if s.dirty {
				cleared++
			}
			if _, ok := listed[name]; !ok {
				delete(st.tables, name)
			}
		}
		for _, t := range perStripe[i] {
			s := st.ensureLocked(t.FullName(), t)
			s.pendingCommits, s.pendingBytes = 0, 0
			s.dirty = false
		}
		mDirtyTables.Set(float64(tr.dirtyNow.Add(-cleared)))
		st.mu.Unlock()
	}
}

// Redirty marks a known table dirty regardless of its trigger policy —
// the conflict-retry path: a job that exhausted its attempts leaves the
// table unmaintained, so it must be reconsidered next cycle even if no
// further writer activity crosses the trigger.
func (tr *Tracker) Redirty(name string) {
	st := tr.stripe(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.tables[name]; ok {
		tr.markDirtyLocked(s)
	}
}

// DirtyCount returns how many tables are currently dirty.
func (tr *Tracker) DirtyCount() int { return int(tr.dirtyNow.Load()) }

// KnownCount returns how many tables the tracker has seen.
func (tr *Tracker) KnownCount() int {
	n := 0
	for _, st := range tr.stripes {
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
