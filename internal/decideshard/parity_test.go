package decideshard_test

// Decision-parity suite: the sharded decide plane must be byte-identical
// to the serial pass — same funnel counts, same ranked order and scores,
// same selection — across seeds, shard counts, ranker kinds, and the
// full maintenance action mix. The fingerprints compared here print
// every ranked candidate with its score at full float precision, so
// "parity" means the bits, not the gist.

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/decideshard"
	"autocomp/internal/fleet"
	"autocomp/internal/maintenance"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

// twinFleets builds two identically seeded fleets that will evolve in
// lockstep as long as their decisions match.
func twinFleets(seed int64, tables int) (*fleet.Fleet, *fleet.Fleet) {
	cfg := testkit.FleetConfig(seed, tables)
	return fleet.New(cfg, sim.NewClock()), fleet.New(cfg, sim.NewClock())
}

// shardedUnifiedService wires the unified maintenance pipeline with the
// sharded decide plane attached.
func shardedUnifiedService(t *testing.T, f *fleet.Fleet, shards, workers int) *core.Service {
	t.Helper()
	cfg := testkit.Config(t, f, testkit.MaintenanceSpec(25))
	eng := decideshard.New(decideshard.Options{Shards: shards, Workers: workers})
	cfg.Decider = eng.Decide
	svc, err := core.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestShardDecisionParityMaintenance is the headline parity matrix:
// seeds {1,7,42} × shard counts {1,2,4,16} over the unified maintenance
// pipeline (data compaction competing with snapshot expiry, metadata
// checkpoints, and manifest rewrites — the PR 1 action mix), acting on
// every decision so the fleets age through state the decisions created.
func TestShardDecisionParityMaintenance(t *testing.T) {
	seeds := []int64{1, 7, 42}
	shardCounts := []int{1, 2, 4, 16}
	days := 4
	tables := 150
	if testing.Short() {
		days, tables = 3, 90
	}
	for _, seed := range seeds {
		for _, shards := range shardCounts {
			serialFleet, shardFleet := twinFleets(seed, tables)
			serialSvc, err := core.NewService(testkit.Config(t, serialFleet, testkit.MaintenanceSpec(25)))
			if err != nil {
				t.Fatal(err)
			}
			shardSvc := shardedUnifiedService(t, shardFleet, shards, 4)

			for day := 0; day < days; day++ {
				serialFleet.AdvanceDay()
				shardFleet.AdvanceDay()
				dSerial, err := serialSvc.Decide()
				if err != nil {
					t.Fatalf("seed %d shards %d day %d: serial decide: %v", seed, shards, day, err)
				}
				dShard, err := shardSvc.Decide()
				if err != nil {
					t.Fatalf("seed %d shards %d day %d: sharded decide: %v", seed, shards, day, err)
				}
				fpSerial, fpShard := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard)
				if fpSerial != fpShard {
					t.Fatalf("seed %d shards %d day %d: decision fingerprints diverge\nserial:\n%s\nsharded:\n%s",
						seed, shards, day, testkit.Head(fpSerial, 25), testkit.Head(fpShard, 25))
				}
				if _, err := serialSvc.Act(dSerial); err != nil {
					t.Fatal(err)
				}
				if _, err := shardSvc.Act(dShard); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestShardParityThresholdRanker covers the second ranker family: the
// threshold policy's per-candidate admission sharded across 4 shards.
func TestShardParityThresholdRanker(t *testing.T) {
	serialFleet, shardFleet := twinFleets(11, 120)
	mkCfg := func(f *fleet.Fleet) core.Config {
		cfg := testkit.Config(t, f, testkit.DataSpec(policy.Component{Name: "all"}))
		cfg.Ranker = core.ThresholdPolicy{Trait: core.RelativeFileCountReduction{}, Threshold: 0.10}
		return cfg
	}
	serialSvc, err := core.NewService(mkCfg(serialFleet))
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := mkCfg(shardFleet)
	shardCfg.Decider = decideshard.New(decideshard.Options{Shards: 4}).Decide
	shardSvc, err := core.NewService(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		serialFleet.AdvanceDay()
		shardFleet.AdvanceDay()
		dSerial, err := serialSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		dShard, err := shardSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard); a != b {
			t.Fatalf("day %d: threshold parity broken\nserial:\n%s\nsharded:\n%s",
				day, testkit.Head(a, 20), testkit.Head(b, 20))
		}
	}
}

// TestShardParityGeneratorsTableLocal pins the table-local contract of
// core.Generator that per-shard generation relies on: for every registry
// generator, their concatenation, and the maintenance generator with and
// without a data generator, generating each ShardOf partition of the
// table list separately emits the same multiset of candidate IDs as one
// whole-list call, and every candidate lands on its own table's shard.
func TestShardParityGeneratorsTableLocal(t *testing.T) {
	f, _ := testkit.NewFleet(7, 120)
	for day := 0; day < 3; day++ {
		f.AdvanceDay()
	}
	tables := fleet.Connector{Fleet: f}.Tables()

	b := policy.NewBuilder(f.PolicyEnv(testkit.Model()))
	params := map[string]map[string]any{"snapshot-scope": {"window": "36h"}}
	gens := map[string]core.Generator{}
	var all core.MultiGenerator
	for _, name := range policy.NewRegistry().Names(policy.KindGenerator) {
		g, err := b.Generator(policy.Component{Name: name, Params: params[name]})
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		gens[name] = g
		all = append(all, g)
	}
	gens["multi"] = all
	gens["maintenance"] = maintenance.Generator{}
	gens["maintenance+table-scope"] = maintenance.Generator{Data: core.TableScopeGenerator{}}

	for name, g := range gens {
		whole := candidateIDs(g.Candidates(tables))
		// The aggregate fleet's tables are unpartitioned, so
		// partition-scope emits nothing; every other generator must emit
		// something for the check to bite.
		if len(whole) == 0 && name != "partition-scope" {
			t.Fatalf("%s: generated no candidates; the check would be vacuous", name)
		}
		for _, shards := range []int{2, 4, 16} {
			parts := make([][]core.Table, shards)
			for _, tb := range tables {
				s := core.ShardOf(tb.FullName(), shards)
				parts[s] = append(parts[s], tb)
			}
			var concat []*core.Candidate
			for s, part := range parts {
				cands := g.Candidates(part)
				for _, c := range cands {
					if got := core.ShardOf(c.Table.FullName(), shards); got != s {
						t.Fatalf("%s S=%d: candidate %s emitted by shard %d hashes to %d", name, shards, c.ID(), s, got)
					}
				}
				concat = append(concat, cands...)
			}
			if got := candidateIDs(concat); !reflect.DeepEqual(got, whole) {
				t.Fatalf("%s S=%d: per-shard generation emitted %d candidate IDs, whole list %d",
					name, shards, len(got), len(whole))
			}
		}
	}
}

// candidateIDs returns the candidates' IDs sorted, a multiset key.
func candidateIDs(cands []*core.Candidate) []string {
	ids := make([]string, len(cands))
	for i, c := range cands {
		ids[i] = c.ID()
	}
	sort.Strings(ids)
	return ids
}

// TestShardParityBudgetSelector pins the selector interaction: the
// budget selector walks the full merged ranking (greedy skip, not
// stop), so any ordering slip past the top-k would surface here.
func TestShardParityBudgetSelector(t *testing.T) {
	serialFleet, shardFleet := twinFleets(3, 140)
	spec := testkit.DataSpec(policy.Component{Name: "budget", Params: map[string]any{
		"budget_gbhr": float64(600), "max_k": float64(40),
	}})
	serialSvc, err := core.NewService(testkit.Config(t, serialFleet, spec))
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := testkit.Config(t, shardFleet, spec)
	shardCfg.Decider = decideshard.New(decideshard.Options{Shards: 16, Workers: 2}).Decide
	shardSvc, err := core.NewService(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		serialFleet.AdvanceDay()
		shardFleet.AdvanceDay()
		dSerial, err := serialSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		dShard, err := shardSvc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := testkit.DecisionFingerprint(dSerial), testkit.DecisionFingerprint(dShard); a != b {
			t.Fatalf("day %d: budget-selector parity broken\nserial:\n%s\nsharded:\n%s",
				day, testkit.Head(a, 20), testkit.Head(b, 20))
		}
		if _, err := serialSvc.Act(dSerial); err != nil {
			t.Fatal(err)
		}
		if _, err := shardSvc.Act(dShard); err != nil {
			t.Fatal(err)
		}
	}
}

// countingRanker counts Rank calls and records the last pool's size.
type countingRanker struct {
	core.Ranker
	calls, pool int
}

func (r *countingRanker) Rank(cands []*core.Candidate) []*core.Candidate {
	r.calls++
	r.pool = len(cands)
	return r.Ranker.Rank(cands)
}

// TestEngineRanksPoolOnce checks that a sharded cycle ranks once, over
// every shard's survivors, and that its CycleStats keep one ShardRank
// entry per shard, each zero.
func TestEngineRanksPoolOnce(t *testing.T) {
	f := fleet.New(testkit.FleetConfig(3, 120), sim.NewClock())
	cfg := testkit.Config(t, f, testkit.MaintenanceSpec(25))
	r := &countingRanker{Ranker: cfg.Ranker}
	cfg.Ranker = r
	eng := decideshard.New(decideshard.Options{Shards: 4, Workers: 2})
	cfg.Decider = eng.Decide
	svc, err := core.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 2; cycle++ {
		f.AdvanceDay()
		d, err := svc.Decide()
		if err != nil {
			t.Fatal(err)
		}
		if r.calls != cycle || r.pool == 0 || r.pool != d.AfterTraitFilter {
			t.Fatalf("cycle %d: %d Rank calls, last over %d candidates; want %d calls over the %d survivors",
				cycle, r.calls, r.pool, cycle, d.AfterTraitFilter)
		}
		cs := eng.LastCycle()
		if len(cs.ShardRank) != cs.Shards || slices.ContainsFunc(cs.ShardRank, func(d time.Duration) bool { return d != 0 }) {
			t.Fatalf("cycle %d: ShardRank = %v, want %d zeros", cycle, cs.ShardRank, cs.Shards)
		}
	}
}
