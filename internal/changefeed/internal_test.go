package changefeed

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/decideshard"
)

// propTable is a versioned table the property test mutates. Methods the
// pipeline never calls belong to the embedded nil interface.
type propTable struct {
	core.Table
	name    string
	version int64
	files   int
}

func (t *propTable) Database() string { return "db" }
func (t *propTable) Name() string     { return t.name }
func (t *propTable) FullName() string { return "db." + t.name }
func (t *propTable) Version() int64   { return t.version }

// propLake is the property test's catalog: the live tables by name. It
// is the connector's full enumeration and the candidates' observer.
type propLake map[string]*propTable

func (l propLake) Tables() []core.Table {
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]core.Table, len(names))
	for i, name := range names {
		out[i] = l[name]
	}
	return out
}
func (propLake) QuotaUtilization(string) float64 { return 0 }
func (propLake) Now() time.Duration              { return 0 }

// Observe marks the stats with the candidate's action, so a unit served
// another unit's observation shows.
func (propLake) Observe(c *core.Candidate) (core.Stats, error) {
	n := c.Table.(*propTable).files
	return core.Stats{FileCount: n, SmallFiles: n, DeltaFiles: int(c.Action)}, nil
}

// lateConnector runs queued events once the feed's connector has taken
// the cycle's table list, as a commit landing while a decide cycle runs
// would: the cycle emits the tables' retained candidates, which the
// events have made stale.
type lateConnector struct {
	core.Connector
	late *[]func()
}

func (c lateConnector) Tables() []core.Table {
	ts := c.Connector.Tables()
	for _, run := range *c.late {
		run()
	}
	*c.late = nil
	return ts
}

// expiryGenerator proposes a snapshot expiry for every table: a second
// work unit per table beside the data-compaction one.
type expiryGenerator struct{}

func (expiryGenerator) Name() string { return "expiry" }

func (expiryGenerator) Candidates(tables []core.Table) []*core.Candidate {
	out := make([]*core.Candidate, len(tables))
	for i, t := range tables {
		out[i] = &core.Candidate{Table: t, Action: core.ActionSnapshotExpiry}
	}
	return out
}

// recount walks the whole index under its stripe locks.
func recount(f *Feed) (dirty, entries, retained, known int) {
	for _, st := range f.idx {
		st.mu.Lock()
		known += len(st.tables)
		for _, r := range st.tables {
			if r.dirty {
				dirty++
			}
			if r.pool != nil {
				entries += len(r.pool.cached)
				retained += len(r.pool.retained)
			}
		}
		st.mu.Unlock()
	}
	return dirty, entries, retained, known
}

// TestIncrementalIndexMatchesRecountProperty drives random sequences of
// commit, maintenance, drop (with a commit racing it), recreate,
// Redirty, silent commit (a version advance that publishes no event) and
// late maintenance (an event landing after a cycle took its table list)
// events, plus dirty and full decide cycles, through a real feed and
// pipeline at several stripe counts — sharded decide above one stripe —
// with one work unit per table, two duplicate units, a second action,
// or both. After every step the O(1) accounting must equal a recount of
// the index, and the retained pool and the cache must name only live
// tables at versions they reached. After every decide each ranked
// candidate must carry its live table's current stats, and the cycle's
// cache hits and misses must equal a model: a miss for each distinct
// (table, work unit) pair not observed at the table's current version
// since its last invalidation, a hit for every other observe call.
func TestIncrementalIndexMatchesRecountProperty(t *testing.T) {
	for seed := int64(1); seed <= 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stripes := []int{1, 3, 8}[seed%3]
		gen := core.MultiGenerator{core.TableScopeGenerator{}}
		if seed%4 == 1 || seed%4 == 3 {
			gen = append(gen, core.TableScopeGenerator{})
		}
		if seed%4 >= 2 {
			gen = append(gen, expiryGenerator{})
		}
		lake := propLake{}
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("t%02d", i)
			lake[name] = &propTable{name: name, version: 1, files: 1 + rng.Intn(5)}
		}
		feed := NewFeedSharded(StaticTriggers(TriggerPolicy{EveryCommits: 2}), 0, stripes)
		var late []func()
		cfg := core.Config{
			Connector: lateConnector{feed.Connector(lake), &late},
			Generator: feed.Generator(gen),
			Observer:  feed.Observer(lake, nil),
			Traits:    []core.Trait{core.FileCountReduction{}},
			Ranker:    core.ThresholdPolicy{Trait: core.FileCountReduction{}, Threshold: 0},
		}
		if stripes > 1 {
			cfg.Decider = decideshard.New(decideshard.Options{Shards: stripes, Workers: 2}).Decide
		}
		svc, err := core.NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d stripes %d generators %d: %s after:\n%s", seed, stripes, len(gen),
				fmt.Sprintf(format, args...), strings.Join(trace, "\n"))
		}
		// observedAt models the cache: the version each (table, action)
		// pair was last observed at since its table's last invalidation.
		observedAt := map[string]int64{}
		invalidate := func(name string) {
			for _, a := range core.ActionTypes() {
				delete(observedAt, name+"#"+a.String())
			}
		}
		decide := func(full bool) {
			t.Helper()
			feed.ReconcileEvery = 0
			if full {
				feed.ReconcileEvery = 1
			}
			before := feed.Cache.Counters()
			d, err := svc.Decide()
			if err != nil {
				fail("decide: %v", err)
			}
			// No filter drops a candidate, so the ranked pool is every
			// candidate observed this cycle.
			var misses int64
			seen := map[string]bool{}
			for _, c := range d.Ranked {
				live := lake[c.Table.Name()]
				if c.Table != core.Table(live) || c.Stats.FileCount != live.files ||
					c.Stats.DeltaFiles != int(c.Action) {
					fail("ranked %s is not its live table's current state", c.ID())
				}
				key := c.Table.Name() + "#" + c.Action.String()
				if seen[key] {
					continue
				}
				seen[key] = true
				if v, ok := observedAt[key]; !ok || v != live.version {
					misses++
				}
				observedAt[key] = live.version
			}
			after := feed.Cache.Counters()
			if got := after.Misses - before.Misses; got != misses {
				fail("cycle misses = %d, model %d", got, misses)
			}
			if got, want := after.Hits-before.Hits, int64(len(d.Ranked))-misses; got != want {
				fail("cycle hits = %d, model %d", got, want)
			}
		}
		decide(true) // cold start
		for step := 0; step < 150; step++ {
			name := fmt.Sprintf("t%02d", rng.Intn(10))
			tb := lake[name]
			op := rng.Intn(9)
			switch {
			case tb == nil && (op <= 2 || op == 4 || op == 8):
				trace = append(trace, "recreate "+name)
				tb = &propTable{name: name, version: 1, files: 1}
				lake[name] = tb
				invalidate(name)
				feed.Publish(Event{Table: tb.FullName(), Ref: tb, Commits: 1})
			case op == 0:
				trace = append(trace, "commit "+name)
				tb.version++
				tb.files++
				e := Event{Table: tb.FullName(), Commits: 1, Bytes: 10}
				if rng.Intn(4) > 0 {
					// Events without a Ref must still reach the table's record.
					e.Ref = tb
				}
				invalidate(name)
				feed.Publish(e)
			case op == 1:
				// A version-preserving compaction: only the invalidation
				// keeps the cache from serving the old file count.
				trace = append(trace, "maintenance "+name)
				tb.files = 1
				invalidate(name)
				feed.Publish(Event{Table: tb.FullName(), Ref: tb, Maintenance: true})
			case op == 2:
				trace = append(trace, "drop "+name)
				delete(lake, name)
				invalidate(name)
				feed.Publish(Event{Table: tb.FullName(), Dropped: true})
				if rng.Intn(2) == 0 {
					trace = append(trace, "racing commit "+name)
					feed.Publish(Event{Table: tb.FullName(), Ref: tb, Commits: 1})
				}
			case op == 3:
				trace = append(trace, "redirty "+name)
				feed.Tracker.Redirty("db." + name)
			case op == 4:
				// A commit whose event never arrives: only the version
				// keeps the cache from serving the old file count.
				trace = append(trace, "silent commit "+name)
				tb.version++
				tb.files++
			case op == 8:
				trace = append(trace, "late maintenance "+name)
				late = append(late, func() {
					if lake[name] == tb {
						tb.files = 1
						invalidate(name)
						feed.Publish(Event{Table: tb.FullName(), Ref: tb, Maintenance: true})
					}
				})
			default:
				trace = append(trace, fmt.Sprintf("decide full=%v", op == 7))
				decide(op == 7)
			}
			dirty, entries, retained, known := recount(feed)
			if got := feed.Tracker.DirtyCount(); got != dirty {
				fail("DirtyCount = %d, recount %d", got, dirty)
			}
			if got := feed.Cache.Counters().Entries; got != entries {
				fail("Counters().Entries = %d, recount %d", got, entries)
			}
			if got := feed.RetainedCount(); got != retained {
				fail("RetainedCount = %d, recount %d", got, retained)
			}
			if got := feed.Tracker.KnownCount(); got != known {
				fail("KnownCount = %d, recount %d", got, known)
			}
			for _, full := range feed.RetainedTables() {
				if lake[strings.TrimPrefix(full, "db.")] == nil {
					fail("RetainedTables names dropped table %s", full)
				}
			}
			for full, v := range feed.Cache.MaxVersions() {
				live := lake[strings.TrimPrefix(full, "db.")]
				if live == nil || v > live.version {
					fail("MaxVersions has %s at version %d, beyond the live table", full, v)
				}
			}
		}
	}
}

// TestShardCandidatesPanicsOnShardCountMismatch pins the wiring check: a
// feed serves exactly the shard count it was built with, and a caller
// with another count is told both.
func TestShardCandidatesPanicsOnShardCountMismatch(t *testing.T) {
	feed := NewFeedSharded(nil, 0, 4)
	gen := feed.Generator(core.TableScopeGenerator{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ShardCandidates with a foreign shard count did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "8 decide shards") || !strings.Contains(msg, "built for 4") {
			t.Fatalf("panic %q does not name both shard counts", msg)
		}
	}()
	gen.ShardCandidates(0, 8, nil)
}
