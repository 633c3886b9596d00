package fleet

import (
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/storage"
)

// TestIncrementalCacheHitAllocatesNothing pins the cost of a stats-cache
// hit on the compiled incremental observer of a unified-maintenance
// fleet spec: serving a retained candidate's cached observation, with
// its quota re-read, allocates nothing for data-compaction and
// maintenance candidates alike.
func TestIncrementalCacheHitAllocatesNothing(t *testing.T) {
	f, _ := smallFleet(3)
	for range 3 {
		f.AdvanceDay()
	}
	model := DefaultModel(512 * storage.MB)
	spec := policy.DefaultSpec()
	spec.Execution = nil
	spec.Trigger = &policy.TriggerSpec{EveryCommits: 1}
	comp, err := policy.Compile(spec, f.PolicyEnv(model), f.PolicyBindings(model))
	if err != nil {
		t.Fatal(err)
	}
	cfg, feed := f.IncrementalConfig(comp.Core, IncrOptions{Trigger: comp.Trigger})
	svc, err := core.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := svc.Decide() // cold start: observes and caches the pool
	if err != nil {
		t.Fatal(err)
	}
	var data, maint *core.Candidate
	for _, c := range d.Ranked {
		if c.Action == core.ActionDataCompaction {
			data = c
		} else {
			maint = c
		}
	}
	if data == nil || maint == nil {
		t.Fatalf("ranked pool lacks a data (%v) or maintenance (%v) candidate", data != nil, maint != nil)
	}
	for _, c := range []*core.Candidate{data, maint} {
		before := feed.Cache.Counters().Hits
		var s core.Stats
		allocs := testing.AllocsPerRun(100, func() { s, err = cfg.Observer.Observe(c) })
		if err != nil {
			t.Fatal(err)
		}
		if feed.Cache.Counters().Hits == before {
			t.Fatalf("%s: observation missed the cache", c.ID())
		}
		if s.SmallFiles != c.Stats.SmallFiles || s.MetadataReducible != c.Stats.MetadataReducible ||
			s.QuotaUtilization != c.Stats.QuotaUtilization {
			t.Fatalf("%s: hit served %+v, want %+v", c.ID(), s, c.Stats)
		}
		if allocs != 0 {
			t.Errorf("%s: a cache hit allocates %.0f times, want 0", c.ID(), allocs)
		}
	}
}

// TestSetPolicyDetachesFeed pins that a reload to a spec without a
// trigger section detaches the running feed: the old feed must not
// account any of the fleet's later commits.
func TestSetPolicyDetachesFeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialTables, cfg.Databases = 60, 3
	spec := policy.DefaultSpec()
	spec.Trigger = &policy.TriggerSpec{EveryCommits: 1}
	l, err := OpenLake("alpha", cfg, spec, SpecRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(nil); err != nil {
		t.Fatal(err)
	}
	feed := l.Service().Feed
	if feed == nil || feed.Tracker.Events() == 0 {
		t.Fatal("the trigger spec's feed accounted no commits")
	}
	before := feed.Tracker.Events()

	if err := l.SetPolicy(policy.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(nil); err != nil {
		t.Fatal(err)
	}
	if got := feed.Tracker.Events(); got != before {
		t.Fatalf("detached feed accounted %d more events after the reload", got-before)
	}
}
