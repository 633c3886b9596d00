package decideshard

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/metrics"
	"autocomp/internal/sim"
)

// mergeTable is a minimal core.Table for synthetic merge candidates.
type mergeTable struct{ name string }

func (t mergeTable) Database() string                       { return "db" }
func (t mergeTable) Name() string                           { return t.name }
func (t mergeTable) FullName() string                       { return t.name }
func (t mergeTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (t mergeTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (t mergeTable) Prop(string) string                     { return "" }
func (t mergeTable) Created() time.Duration                 { return 0 }
func (t mergeTable) LastWrite() time.Duration               { return 0 }
func (t mergeTable) FileCount() int                         { return 1 }
func (t mergeTable) TotalBytes() int64                      { return 1 }
func (t mergeTable) Partitions() []string                   { return nil }
func (t mergeTable) LiveFiles() []lst.DataFile              { return nil }
func (t mergeTable) FilesInPartition(string) []lst.DataFile { return nil }

// TestMergeRankedMatchesStableSortProperty drives 500 random cases
// through MergeRanked and checks the defining property: merging
// per-shard stable-sorted rankings equals stable-sorting the shard
// concatenation by core.RankCompare. Scores are drawn from a tiny pool
// (deliberate ties, signed zero, infinities) and candidate IDs are
// sometimes duplicated across shards, so the heap's lower-shard
// tie-break — the stable-sort mirror — is exercised, not just the happy
// path of a total order.
func TestMergeRankedMatchesStableSortProperty(t *testing.T) {
	negZero := math.Copysign(0, -1)
	scorePool := []float64{-1.5, 0, negZero, 0.25, 0.25, 2.5, math.Inf(1), math.Inf(-1)}
	for ci := 0; ci < 500; ci++ {
		rng := sim.Child(42, fmt.Sprintf("merge-case-%d", ci))
		shards := rng.IntBetween(1, 9)
		parts := make([][]*core.Candidate, shards)
		var names []string
		for i, n := 0, rng.Intn(48); i < n; i++ {
			var name string
			if len(names) > 0 && rng.Bernoulli(0.15) {
				name = names[rng.Intn(len(names))] // duplicate ID, maybe cross-shard
			} else {
				name = fmt.Sprintf("db%d.t%03d", rng.Intn(4), i)
			}
			names = append(names, name)
			c := &core.Candidate{
				Table: mergeTable{name},
				Score: scorePool[rng.Intn(len(scorePool))],
			}
			s := rng.Intn(shards)
			parts[s] = append(parts[s], c)
		}
		var all []*core.Candidate
		for _, p := range parts {
			all = append(all, p...)
		}
		want := make([]*core.Candidate, len(all))
		copy(want, all)
		slices.SortStableFunc(want, core.RankCompare)
		for _, p := range parts {
			slices.SortStableFunc(p, core.RankCompare)
		}
		got := MergeRanked(parts)
		if len(got) != len(want) {
			t.Fatalf("case %d: merged %d candidates, want %d", ci, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: position %d: merged %s (%v), stable sort has %s (%v)",
					ci, i, got[i].ID(), got[i].Score, want[i].ID(), want[i].Score)
			}
		}
	}
}

// TestMOOPShardRankEquivalenceProperty checks the MOOP ranker against
// the paper's formula over 500 random pools. The oracle is written out
// independently of the Ranker contract: metrics.MinMaxNormalize per
// objective over the whole pool, then the weighted sum in objective
// order (benefit terms add, cost terms subtract), sorted by
// core.RankCompare. Both core.Rank and the sharded path — partition by
// core.ShardOf, merge per-shard bounds, rank each shard against them,
// k-way-merge — must reproduce it bit for bit: same order, same
// Float64bits of every score. Trait values span adversarial ground
// (1e±300 magnitudes, negatives, constant columns that collapse the
// min-max span) and weights are NaN-free but include zeros and wildly
// skewed magnitudes before normalization.
func TestMOOPShardRankEquivalenceProperty(t *testing.T) {
	traitPool := []float64{0, 1, -3.5, 1e-300, 1e300, -1e300, 7, 7, 0.125}
	weightPool := []float64{0, 1e-8, 0.5, 1, 1e6}
	for ci := 0; ci < 500; ci++ {
		rng := sim.Child(7, fmt.Sprintf("moop-case-%d", ci))
		nObj := rng.IntBetween(1, 4)
		objectives := make([]core.Objective, nObj)
		sum := 0.0
		raw := make([]float64, nObj)
		for i := range raw {
			raw[i] = weightPool[rng.Intn(len(weightPool))]
			sum += raw[i]
		}
		if sum == 0 {
			raw[0], sum = 1, 1
		}
		for i := range objectives {
			dir := core.Benefit
			if rng.Bernoulli(0.4) {
				dir = core.Cost
			}
			objectives[i] = core.Objective{
				Trait:  core.TraitFunc{TraitName: fmt.Sprintf("t%d", i), Dir: dir},
				Weight: raw[i] / sum,
			}
		}
		ranker := core.MOOPRanker{Objectives: objectives}
		traits := make([]core.Trait, nObj)
		for i, o := range objectives {
			traits[i] = o.Trait
		}
		set, err := core.NewTraitSet(traits)
		if err != nil {
			t.Fatal(err)
		}

		nCands := rng.Intn(60)
		constant := rng.Bernoulli(0.2) // collapse one trait's span to zero
		cands := make([]*core.Candidate, nCands)
		for i := range cands {
			vec := make([]float64, set.Len())
			for j := 0; j < nObj; j++ {
				v := traitPool[rng.Intn(len(traitPool))]
				if constant && j == 0 {
					v = 42
				}
				vec[set.Slot(fmt.Sprintf("t%d", j))] = v
			}
			cands[i] = &core.Candidate{
				Table:    mergeTable{fmt.Sprintf("db%d.t%04d", rng.Intn(8), i)},
				TraitSet: set,
				Traits:   vec,
			}
		}

		type scored struct {
			id   string
			bits uint64
		}
		capture := func(ranked []*core.Candidate) []scored {
			out := make([]scored, len(ranked))
			for i, c := range ranked {
				out[i] = scored{c.ID(), math.Float64bits(c.Score)}
			}
			return out
		}

		oracle := capture(moopOracle(objectives, cands))
		check := func(path string, ranked []*core.Candidate) {
			t.Helper()
			got := capture(ranked)
			if len(got) != len(oracle) {
				t.Fatalf("case %d: %s ranked %d, oracle %d", ci, path, len(got), len(oracle))
			}
			for i := range oracle {
				if got[i] != oracle[i] {
					t.Fatalf("case %d (%d objectives): %s position %d: %s/%016x, oracle %s/%016x",
						ci, nObj, path, i, got[i].id, got[i].bits, oracle[i].id, oracle[i].bits)
				}
			}
		}
		check("core.Rank", core.Rank(ranker, cands))

		shards := rng.IntBetween(2, 16)
		parts := make([][]*core.Candidate, shards)
		for _, c := range cands {
			s := core.ShardOf(c.Table.FullName(), shards)
			parts[s] = append(parts[s], c)
		}
		stats := make([]any, shards)
		for s, p := range parts {
			stats[s] = ranker.ShardStats(p)
		}
		global := ranker.MergeStats(stats)
		ranked := make([][]*core.Candidate, shards)
		for s, p := range parts {
			ranked[s] = ranker.RankShard(p, global)
		}
		check(fmt.Sprintf("sharded (%d shards)", shards), MergeRanked(ranked))
	}
}

// moopOracle scores cands with the paper's scalarized MOOP (§4.3),
// S_c = Σ_i ±w_i·T'_i,c with T'_i = metrics.MinMaxNormalize over the
// whole pool, and returns fresh scored copies sorted by core.RankCompare.
func moopOracle(objs []core.Objective, cands []*core.Candidate) []*core.Candidate {
	norm := make([][]float64, len(objs))
	for i, o := range objs {
		raw := make([]float64, len(cands))
		for j, c := range cands {
			raw[j] = c.Trait(c.TraitSet.Slot(o.Trait.Name()))
		}
		norm[i] = metrics.MinMaxNormalize(raw)
	}
	out := make([]*core.Candidate, len(cands))
	for j, c := range cands {
		score := 0.0
		for i, o := range objs {
			term := o.Weight * norm[i][j]
			if o.Trait.Direction() == core.Cost {
				score -= term
			} else {
				score += term
			}
		}
		out[j] = &core.Candidate{Table: c.Table, TraitSet: c.TraitSet, Traits: c.Traits, Score: score}
	}
	slices.SortStableFunc(out, core.RankCompare)
	return out
}
