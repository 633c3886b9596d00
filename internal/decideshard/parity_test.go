package decideshard_test

// Decision-parity suite: the sharded decide plane must be byte-identical
// to the serial pass — same funnel counts, same ranked order and scores,
// same selection and plan — across seeds, shard counts, ranker kinds,
// and the full maintenance action mix. The fingerprints compared here
// print every ranked candidate with its score at full float precision,
// so "parity" means the bits, not the gist.

import (
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/decideshard"
	"autocomp/internal/fleet"
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

// nonLocalGenerator wraps a real generator while withholding the
// table-local declaration, forcing the engine's serial-generation
// fallback with hash partitioning.
type nonLocalGenerator struct{ inner core.Generator }

func (g nonLocalGenerator) Name() string { return "non-local(" + g.inner.Name() + ")" }
func (g nonLocalGenerator) Candidates(tables []core.Table) []*core.Candidate {
	return g.inner.Candidates(tables)
}

// TestShardParityGeneratorFallback proves the set-preserving fallback:
// a generator the engine cannot fan out is generated once serially,
// hash-partitioned, and still ranked byte-identically.
func TestShardParityGeneratorFallback(t *testing.T) {
	serialFleet, shardFleet := twinFleets(7, 100)
	topK := testkit.DataSpec(policy.Component{Name: "top-k", Params: map[string]any{"k": float64(10)}})
	serialSvc, err := core.NewService(testkit.Config(t, serialFleet, topK))
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := testkit.Config(t, shardFleet, topK)
	shardCfg.Generator = nonLocalGenerator{inner: shardCfg.Generator}
	shardCfg.Decider = decideshard.New(decideshard.Options{Shards: 4}).Decide
	shardSvc, err := core.NewService(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("fallback parity broken\nserial:\n%s\nsharded:\n%s",
			testkit.Head(a, 20), testkit.Head(b, 20))
	}
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
