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
func (propLake) Observe(c *core.Candidate) (core.Stats, error) {
	n := c.Table.(*propTable).files
	return core.Stats{FileCount: n, SmallFiles: n}, nil
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
// commit, maintenance, drop (with a commit racing it), recreate and
// Redirty events, plus dirty and full decide cycles, through a real feed
// and pipeline at several stripe counts — sharded decide above one
// stripe. After every step the O(1) accounting must equal a recount of
// the index, the retained pool and the cache must name only live
// tables at versions they reached, and every ranked candidate must carry
// its live table's current stats.
func TestIncrementalIndexMatchesRecountProperty(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stripes := []int{1, 3, 8}[seed%3]
		lake := propLake{}
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("t%02d", i)
			lake[name] = &propTable{name: name, version: 1, files: 1 + rng.Intn(5)}
		}
		feed := NewFeedSharded(StaticTriggers(TriggerPolicy{EveryCommits: 2}), 0, stripes)
		cfg := core.Config{
			Connector: feed.Connector(lake),
			Generator: feed.Generator(core.TableScopeGenerator{}),
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
			t.Fatalf("seed %d stripes %d: %s after:\n%s", seed, stripes,
				fmt.Sprintf(format, args...), strings.Join(trace, "\n"))
		}
		decide := func(full bool) {
			t.Helper()
			feed.ReconcileEvery = 0
			if full {
				feed.ReconcileEvery = 1
			}
			d, err := svc.Decide()
			if err != nil {
				fail("decide: %v", err)
			}
			for _, c := range d.Ranked {
				live := lake[c.Table.Name()]
				if c.Table != core.Table(live) || c.Stats.FileCount != live.files {
					fail("ranked %s is not its live table's current state", c.ID())
				}
			}
		}
		decide(true) // cold start
		for step := 0; step < 150; step++ {
			name := fmt.Sprintf("t%02d", rng.Intn(10))
			tb := lake[name]
			op := rng.Intn(7)
			switch {
			case tb == nil && op <= 2:
				trace = append(trace, "recreate "+name)
				tb = &propTable{name: name, version: 1, files: 1}
				lake[name] = tb
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
				feed.Publish(e)
			case op == 1:
				// A version-preserving compaction: only the invalidation
				// keeps the cache from serving the old file count.
				trace = append(trace, "maintenance "+name)
				tb.files = 1
				feed.Publish(Event{Table: tb.FullName(), Ref: tb, Maintenance: true})
			case op == 2:
				trace = append(trace, "drop "+name)
				delete(lake, name)
				feed.Publish(Event{Table: tb.FullName(), Dropped: true})
				if rng.Intn(2) == 0 {
					trace = append(trace, "racing commit "+name)
					feed.Publish(Event{Table: tb.FullName(), Ref: tb, Commits: 1})
				}
			case op == 3:
				trace = append(trace, "redirty "+name)
				feed.Tracker.Redirty("db." + name)
			default:
				trace = append(trace, fmt.Sprintf("decide full=%v", op == 6))
				decide(op == 6)
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
