package changefeed

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autocomp/internal/core"
)

// namedTable is the least core.Table the tracker needs: a name. Every
// other method belongs to the embedded nil interface and must not be
// called.
type namedTable struct {
	core.Table
	db, name string
}

func (t namedTable) Database() string { return t.db }
func (t namedTable) Name() string     { return t.name }
func (t namedTable) FullName() string { return t.db + "." + t.name }

// recountDirty counts dirty entries the slow way, across every stripe.
func recountDirty(tr *Tracker) int {
	n := 0
	for _, st := range tr.stripes {
		st.mu.Lock()
		for _, s := range st.tables {
			if s.dirty {
				n++
			}
		}
		st.mu.Unlock()
	}
	return n
}

// TestDirtyCountMatchesRecountProperty drives random sequences of
// commit, maintenance, drop, Redirty, TakeDirty and NoteFullScan events
// through trackers of several stripe counts and checks after every step
// that the O(1) DirtyCount equals a recount of the dirty entries.
func TestDirtyCountMatchesRecountProperty(t *testing.T) {
	tables := make([]namedTable, 12)
	for i := range tables {
		tables[i] = namedTable{db: "db", name: fmt.Sprintf("t%02d", i)}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stripes := []int{1, 3, 8}[seed%3]
		tr := NewTrackerSharded(StaticTriggers(TriggerPolicy{EveryCommits: 2}), stripes)
		var trace []string
		for step := 0; step < 200; step++ {
			tb := tables[rng.Intn(len(tables))]
			e := Event{Table: tb.FullName(), Commits: 1}
			if rng.Intn(4) > 0 {
				// Events without a Ref leave the table dirty through
				// TakeDirty until a full scan supplies one.
				e.Ref = tb
			}
			var op string
			switch rng.Intn(6) {
			case 0:
				op = "commit " + tb.name
				tr.HandleEvent(e)
			case 1:
				op = "maintenance " + tb.name
				e.Maintenance = true
				tr.HandleEvent(e)
			case 2:
				op = "drop " + tb.name
				tr.HandleEvent(Event{Table: tb.FullName(), Dropped: true})
			case 3:
				op = "redirty " + tb.name
				tr.Redirty(tb.FullName())
			case 4:
				op = "take"
				tr.TakeDirty()
			case 5:
				var listed []core.Table
				for _, lt := range tables {
					if rng.Intn(3) > 0 {
						listed = append(listed, lt)
					}
				}
				op = fmt.Sprintf("full-scan(%d)", len(listed))
				tr.NoteFullScan(listed)
			}
			trace = append(trace, op)
			if got, want := tr.DirtyCount(), recountDirty(tr); got != want {
				t.Fatalf("seed %d stripes %d step %d: DirtyCount = %d, recount = %d after:\n%s",
					seed, stripes, step, got, want, strings.Join(trace, "\n"))
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
