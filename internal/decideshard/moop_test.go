package decideshard_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/decideshard"
	"autocomp/internal/lst"
	"autocomp/internal/metrics"
	"autocomp/internal/sim"
)

// poolTable is a minimal core.Table for synthetic candidate pools.
type poolTable struct{ name string }

func (t poolTable) Database() string                       { return t.name[:strings.IndexByte(t.name, '.')] }
func (t poolTable) Name() string                           { return t.name[strings.IndexByte(t.name, '.')+1:] }
func (t poolTable) FullName() string                       { return t.name }
func (t poolTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (t poolTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (t poolTable) Prop(string) string                     { return "" }
func (t poolTable) Created() time.Duration                 { return 0 }
func (t poolTable) LastWrite() time.Duration               { return 0 }
func (t poolTable) FileCount() int                         { return 1 }
func (t poolTable) TotalBytes() int64                      { return 1 }
func (t poolTable) Partitions() []string                   { return nil }
func (t poolTable) LiveFiles() []lst.DataFile              { return nil }
func (t poolTable) FilesInPartition(string) []lst.DataFile { return nil }

// poolConnector serves a fixed table list.
type poolConnector struct{ tables []core.Table }

func (p poolConnector) Tables() []core.Table          { return p.tables }
func (poolConnector) QuotaUtilization(string) float64 { return 0 }
func (poolConnector) Now() time.Duration              { return 0 }

// nopObserver observes nothing: the pool's traits read preset values.
type nopObserver struct{}

func (nopObserver) Observe(*core.Candidate) (core.Stats, error) { return core.Stats{}, nil }

// TestMOOPShardRankEquivalenceProperty checks the MOOP ranker against
// the paper's formula over 500 random pools. The oracle is written out
// independently of the Ranker contract: metrics.MinMaxNormalize per
// objective over the whole pool, then the weighted sum in objective
// order (benefit terms add, cost terms subtract), sorted by descending
// score, then table name. Both the serial pass and the sharded engine —
// partition by core.ShardOf, refine per shard, rank the concatenated
// survivors — must reproduce it bit for bit: same order, same
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
		// vals[name][i] is table name's value of objective i's trait.
		vals := map[string][]float64{}
		traits := make([]core.Trait, nObj)
		for i := range objectives {
			dir := core.Benefit
			if rng.Bernoulli(0.4) {
				dir = core.Cost
			}
			traits[i] = core.TraitFunc{
				TraitName: fmt.Sprintf("t%d", i),
				Dir:       dir,
				Fn:        func(c *core.Candidate) float64 { return vals[c.Table.FullName()][i] },
			}
			objectives[i] = core.Objective{Trait: traits[i], Weight: raw[i] / sum}
		}
		ranker := core.MOOPRanker{Objectives: objectives}

		// Names are fixed-width, so name order is candidate-ID order.
		nTables := rng.Intn(60)
		constant := rng.Bernoulli(0.2) // collapse one trait's span to zero
		tables := make([]core.Table, nTables)
		for i := range tables {
			name := fmt.Sprintf("db%d.t%04d", rng.Intn(8), i)
			vec := make([]float64, nObj)
			for j := range vec {
				vec[j] = traitPool[rng.Intn(len(traitPool))]
				if constant && j == 0 {
					vec[j] = 42
				}
			}
			vals[name] = vec
			tables[i] = poolTable{name}
		}

		type scored struct {
			id   string
			bits uint64
		}
		oracle := moopOracle(objectives, tables, vals)
		check := func(path string, cfg core.Config) {
			t.Helper()
			svc, err := core.NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := svc.Decide()
			if err != nil {
				t.Fatalf("case %d: %s decide: %v", ci, path, err)
			}
			if len(d.Ranked) != len(oracle) {
				t.Fatalf("case %d: %s ranked %d, oracle %d", ci, path, len(d.Ranked), len(oracle))
			}
			for i, c := range d.Ranked {
				got := scored{c.ID(), math.Float64bits(c.Score)}
				want := scored{oracle[i].name, math.Float64bits(oracle[i].score)}
				if got != want {
					t.Fatalf("case %d (%d objectives): %s position %d: %s/%016x, oracle %s/%016x",
						ci, nObj, path, i, got.id, got.bits, want.id, want.bits)
				}
			}
		}
		cfg := core.Config{
			Connector: poolConnector{tables},
			Generator: core.TableScopeGenerator{},
			Observer:  nopObserver{},
			Traits:    traits,
			Ranker:    ranker,
		}
		check("serial", cfg)

		shards := rng.IntBetween(2, 16)
		cfg.Decider = decideshard.New(decideshard.Options{Shards: shards, Workers: 2}).Decide
		check(fmt.Sprintf("sharded (%d shards)", shards), cfg)
	}
}

// oracleEntry is one table's oracle score.
type oracleEntry struct {
	name  string
	score float64
}

// moopOracle scores tables with the paper's scalarized MOOP (§4.3),
// S_c = Σ_i ±w_i·T'_i,c with T'_i = metrics.MinMaxNormalize over the
// whole pool, reading objective i's raw value from vals[name][i], and
// returns the scores sorted by descending score, then name.
func moopOracle(objs []core.Objective, tables []core.Table, vals map[string][]float64) []oracleEntry {
	norm := make([][]float64, len(objs))
	for i := range objs {
		raw := make([]float64, len(tables))
		for j, tb := range tables {
			raw[j] = vals[tb.FullName()][i]
		}
		norm[i] = metrics.MinMaxNormalize(raw)
	}
	out := make([]oracleEntry, len(tables))
	for j, tb := range tables {
		score := 0.0
		for i, o := range objs {
			term := o.Weight * norm[i][j]
			if o.Trait.Direction() == core.Cost {
				score -= term
			} else {
				score += term
			}
		}
		out[j] = oracleEntry{tb.FullName(), score}
	}
	slices.SortStableFunc(out, func(a, b oracleEntry) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	return out
}
