package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"autocomp/internal/metrics"
)

// rankSet numbers every trait name the ranking tests use, so their
// hand-built candidates share one set, as one Orient call's do.
var rankSet, _ = NewTraitSet([]Trait{
	FileCountReduction{}, ComputeCost{}, RelativeFileCountReduction{},
	TraitFunc{TraitName: "raw"}, TraitFunc{TraitName: "b"}, TraitFunc{TraitName: "c"},
})

// rankVec returns the rankSet vector holding name-keyed values.
func rankVec(vals map[string]float64) []float64 {
	v := make([]float64, rankSet.Len())
	for name, x := range vals {
		slot := rankSet.Slot(name)
		if slot < 0 {
			panic("rankSet has no trait " + name)
		}
		v[slot] = x
	}
	return v
}

// mkCand builds a bare candidate with preset traits for ranking tests
// (no vector when traits is nil).
func mkCand(id string, traits map[string]float64) *Candidate {
	c := &Candidate{Table: fakeTable{name: id}, Scope: ScopeTable}
	if traits != nil {
		c.TraitSet, c.Traits = rankSet, rankVec(traits)
	}
	return c
}

func TestThresholdPolicy(t *testing.T) {
	tr := RelativeFileCountReduction{}
	p := ThresholdPolicy{Trait: tr, Threshold: 0.1}
	cands := []*Candidate{
		mkCand("a.t1", map[string]float64{tr.Name(): 0.05}),
		mkCand("a.t2", map[string]float64{tr.Name(): 0.5}),
		mkCand("a.t3", map[string]float64{tr.Name(): 0.2}),
	}
	ranked := Rank(p, cands)
	if len(ranked) != 2 {
		t.Fatalf("passed = %d", len(ranked))
	}
	if ranked[0].ID() != "a.t2" || ranked[1].ID() != "a.t3" {
		t.Fatalf("order = %v, %v", ranked[0].ID(), ranked[1].ID())
	}
}

func TestMOOPRankerBalancesBenefitAndCost(t *testing.T) {
	benefit := FileCountReduction{}
	cost := ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: 1}
	r := MOOPRanker{Objectives: []Objective{
		{Trait: benefit, Weight: 0.7},
		{Trait: cost, Weight: 0.3},
	}}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper's example (§4.2): two candidates with reductions 200 vs 100.
	// Equal costs → prefer the bigger reduction; much higher cost on the
	// first → the ratio flips.
	equalCost := []*Candidate{
		mkCand("a.big", map[string]float64{benefit.Name(): 200, cost.Name(): 50}),
		mkCand("a.small", map[string]float64{benefit.Name(): 100, cost.Name(): 50}),
		mkCand("a.zero", map[string]float64{benefit.Name(): 0, cost.Name(): 50}),
	}
	ranked := Rank(r, equalCost)
	if ranked[0].ID() != "a.big" {
		t.Fatalf("equal-cost winner = %v", ranked[0].ID())
	}
	costly := []*Candidate{
		mkCand("a.big", map[string]float64{benefit.Name(): 110, cost.Name(): 5000}),
		mkCand("a.small", map[string]float64{benefit.Name(): 100, cost.Name(): 50}),
		mkCand("a.zero", map[string]float64{benefit.Name(): 0, cost.Name(): 40}),
	}
	ranked = Rank(r, costly)
	if ranked[0].ID() != "a.small" {
		t.Fatalf("cost-aware winner = %v (scores %v %v %v)",
			ranked[0].ID(), ranked[0].Score, ranked[1].Score, ranked[2].Score)
	}
}

func TestMOOPRankerDeterministicTieBreak(t *testing.T) {
	benefit := FileCountReduction{}
	r := MOOPRanker{Objectives: []Objective{{Trait: benefit, Weight: 1}}}
	cands := []*Candidate{
		mkCand("z.t", map[string]float64{benefit.Name(): 5}),
		mkCand("a.t", map[string]float64{benefit.Name(): 5}),
		mkCand("m.t", map[string]float64{benefit.Name(): 5}),
	}
	ranked := Rank(r, cands)
	if ranked[0].ID() != "a.t" || ranked[1].ID() != "m.t" || ranked[2].ID() != "z.t" {
		t.Fatalf("tie order = %v %v %v", ranked[0].ID(), ranked[1].ID(), ranked[2].ID())
	}
}

// Property: MOOP ranking is a permutation of its input and is identical
// across repeated runs on the same input (NFR2).
func TestMOOPRankerDeterminismProperty(t *testing.T) {
	benefit := FileCountReduction{}
	cost := TraitFunc{TraitName: "c", Dir: Cost, Fn: nil}
	r := MOOPRanker{Objectives: []Objective{
		{Trait: benefit, Weight: 0.6},
		{Trait: cost, Weight: 0.4},
	}}
	f := func(vals []uint16) bool {
		var a, b []*Candidate
		for i, v := range vals {
			traits := map[string]float64{
				benefit.Name(): float64(v % 997),
				"c":            float64((v * 31) % 1013),
			}
			id := "db.t" + itoa(i)
			a = append(a, mkCand(id, traits))
			traitsCopy := map[string]float64{}
			for k, val := range traits {
				traitsCopy[k] = val
			}
			b = append(b, mkCand(id, traitsCopy))
		}
		ra, rb := Rank(r, a), Rank(r, b)
		if len(ra) != len(vals) || len(rb) != len(vals) {
			return false
		}
		for i := range ra {
			if ra[i].ID() != rb[i].ID() {
				return false
			}
			if math.IsNaN(ra[i].Score) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rankLessRef is the comparator the ranking's stable sort used before
// RankCompare: descending score, then candidate ID. It is the reference
// order for TestRankMatchesStableSortProperty.
func rankLessRef(a, b *Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID() < b.ID()
}

// TestRankMatchesStableSortProperty checks Rank against its reference
// over 400 random pools: for MOOPRanker (static and quota-adaptive
// weights) and ThresholdPolicy, Rank must return the same pointers, in
// the same order, as stable-sorting the admitted input by rankLessRef,
// and must leave its input slice as it was. The pools are full of ties:
// trait values come from tiny pools (the threshold's includes signed
// zero and infinities), and IDs come from six tables across every
// scope × action, so duplicate IDs are common.
func TestRankMatchesStableSortProperty(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rawPool := []float64{-1.5, 0, negZero, 0.25, 2.5, math.Inf(1), math.Inf(-1)}
	thresholds := []float64{math.Inf(-1), 0, 0.25}
	moopPool := []float64{0, 1, 5, 10}
	benefit := TraitFunc{TraitName: "b", Dir: Benefit}
	cost := TraitFunc{TraitName: "c", Dir: Cost}
	static := MOOPRanker{Objectives: []Objective{
		{Trait: benefit, Weight: 0.6},
		{Trait: cost, Weight: 0.4},
	}}
	adaptive := MOOPRanker{Objectives: static.Objectives, DynamicWeights: QuotaAdaptiveWeights()}
	for ci := 0; ci < 400; ci++ {
		rng := rand.New(rand.NewPCG(19, uint64(ci)))
		n := rng.IntN(40)
		if ci%4 == 0 {
			n = rng.IntN(400) // up to nine position bits
		}
		cands := make([]*Candidate, n)
		for i := range cands {
			cands[i] = &Candidate{
				Table:     fakeTable{name: fmt.Sprintf("db%d.t%d", rng.IntN(2), rng.IntN(3))},
				Scope:     Scope(rng.IntN(3)),
				Action:    ActionTypes()[rng.IntN(len(ActionTypes()))],
				Partition: fmt.Sprintf("p%d", rng.IntN(2)),
				Stats:     Stats{QuotaUtilization: float64(rng.IntN(3)) / 2},
				TraitSet:  rankSet,
				Traits: rankVec(map[string]float64{
					"raw": rawPool[rng.IntN(len(rawPool))],
					"b":   moopPool[rng.IntN(len(moopPool))],
					"c":   moopPool[rng.IntN(len(moopPool))],
				}),
			}
		}
		check := func(name string, r Ranker, admit func(*Candidate) bool) {
			t.Helper()
			in := slices.Clone(cands)
			got := Rank(r, cands)
			if !slices.Equal(cands, in) {
				t.Fatalf("case %d: %s permuted its input", ci, name)
			}
			var want []*Candidate
			for _, c := range in {
				if admit(c) {
					want = append(want, c)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return rankLessRef(want[i], want[j]) })
			if len(got) != len(want) {
				t.Fatalf("case %d: %s ranked %d, reference %d", ci, name, len(got), len(want))
			}
			for i := range want {
				if math.IsNaN(got[i].Score) {
					t.Fatalf("case %d: %s scored %s NaN", ci, name, got[i].ID())
				}
				if got[i] != want[i] {
					t.Fatalf("case %d: %s position %d: %s (%v), reference %s (%v)",
						ci, name, i, got[i].ID(), got[i].Score, want[i].ID(), want[i].Score)
				}
			}
		}
		all := func(*Candidate) bool { return true }
		check("static MOOP", static, all)
		check("quota-adaptive MOOP", adaptive, all)
		threshold := thresholds[rng.IntN(len(thresholds))]
		check(fmt.Sprintf("threshold %v", threshold), ThresholdPolicy{
			Trait:     TraitFunc{TraitName: "raw", Dir: Benefit},
			Threshold: threshold,
		}, func(c *Candidate) bool { return c.Trait(rankSet.Slot("raw")) >= threshold })
	}
}

// TestSlotRankingMatchesNameKeyedProperty checks slot-read ranking
// against a name-keyed reference kept here, over 300 random cases. Each
// case draws a trait list (fixed-slot names among them, in random
// order), a pool whose values live in per-candidate name-keyed maps and
// reach the vectors through Orient, a ranker (threshold, static MOOP or
// quota-adaptive MOOP; objectives may name a trait the list lacks,
// which reads 0 both ways) and a split into shards. Every shard's
// RankShard output must list the candidates the reference admits, in
// the reference's order, with bit-identical scores.
func TestSlotRankingMatchesNameKeyedProperty(t *testing.T) {
	namePool := []string{"file_count_reduction", "metadata_reduction", "compute_cost_gbhr", "x0", "x1", "x2"}
	valuePool := []float64{-2, 0, 0.5, 1, 1, 3, 7, 1e6}
	for ci := 0; ci < 300; ci++ {
		rng := rand.New(rand.NewPCG(23, uint64(ci)))
		vals := map[*Candidate]map[string]float64{}
		names := slices.Clone(namePool)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		names = names[:1+rng.IntN(len(names)-1)]
		dir := func() Direction { return Direction(rng.IntN(2)) }
		traits := make([]Trait, len(names))
		for i, name := range names {
			traits[i] = TraitFunc{TraitName: name, Dir: dir(), Fn: func(c *Candidate) float64 { return vals[c][name] }}
		}
		set, err := NewTraitSet(traits)
		if err != nil {
			t.Fatal(err)
		}
		cands := make([]*Candidate, rng.IntN(80))
		for i := range cands {
			c := &Candidate{
				Table: fakeTable{name: fmt.Sprintf("db%d.t%03d", rng.IntN(3), i)},
				Stats: Stats{QuotaUtilization: float64(rng.IntN(5))/2 - 0.5},
			}
			vals[c] = map[string]float64{}
			for _, name := range names {
				vals[c][name] = valuePool[rng.IntN(len(valuePool))]
			}
			cands[i] = c
		}
		Orient(cands, set)

		// The ranker and its name-keyed reference: admit and score.
		objTrait := func() Trait {
			if rng.IntN(6) == 0 {
				return TraitFunc{TraitName: namePool[rng.IntN(len(namePool))], Dir: dir()}
			}
			return traits[rng.IntN(len(traits))]
		}
		var r Ranker
		var admit func(*Candidate) bool
		var score func(cs []*Candidate) map[*Candidate]float64
		kind := rng.IntN(3)
		switch kind {
		case 0:
			tr, min := objTrait(), valuePool[rng.IntN(len(valuePool))]
			r = ThresholdPolicy{Trait: tr, Threshold: min}
			admit = func(c *Candidate) bool { return vals[c][tr.Name()] >= min }
			score = func(cs []*Candidate) map[*Candidate]float64 {
				out := map[*Candidate]float64{}
				for _, c := range cs {
					out[c] = vals[c][tr.Name()]
				}
				return out
			}
		default:
			n := 1 + rng.IntN(3)
			if kind == 2 {
				n = 2 // benefit, cost
			}
			objs := make([]Objective, n)
			sum := 0.0
			for i := range objs {
				objs[i] = Objective{Trait: objTrait(), Weight: float64(1 + rng.IntN(4))}
				sum += objs[i].Weight
			}
			for i := range objs {
				objs[i].Weight /= sum
			}
			moop := MOOPRanker{Objectives: objs}
			if kind == 2 {
				moop.DynamicWeights = QuotaAdaptiveWeights()
			}
			r = moop
			admit = func(*Candidate) bool { return true }
			score = func(cs []*Candidate) map[*Candidate]float64 {
				norm := make([][]float64, len(objs))
				for i, o := range objs {
					raw := make([]float64, len(cs))
					for j, c := range cs {
						raw[j] = vals[c][o.Trait.Name()]
					}
					norm[i] = metrics.MinMaxNormalize(raw)
				}
				out := map[*Candidate]float64{}
				for j, c := range cs {
					var w []float64
					for _, o := range objs {
						w = append(w, o.Weight)
					}
					if kind == 2 {
						u := math.Min(math.Max(c.Stats.QuotaUtilization, 0), 1)
						w1 := 0.5 * (1 + u)
						w = []float64{w1, 1 - w1}
					}
					s := 0.0
					for i, o := range objs {
						if o.Trait.Direction() == Cost {
							s -= w[i] * norm[i][j]
						} else {
							s += w[i] * norm[i][j]
						}
					}
					out[c] = s
				}
				return out
			}
		}
		ref := score(cands)

		shards := 1 + rng.IntN(5)
		parts := make([][]*Candidate, shards)
		for _, c := range cands {
			s := rng.IntN(shards)
			parts[s] = append(parts[s], c)
		}
		stats := make([]any, shards)
		for s, p := range parts {
			stats[s] = r.ShardStats(p)
		}
		global := r.MergeStats(stats)
		for s, p := range parts {
			got := r.RankShard(p, global)
			var want []*Candidate
			for _, c := range p {
				if admit(c) {
					want = append(want, c)
				}
			}
			sort.SliceStable(want, func(i, j int) bool {
				if a, b := ref[want[i]], ref[want[j]]; a != b {
					return a > b
				}
				return want[i].ID() < want[j].ID()
			})
			if len(got) != len(want) {
				t.Fatalf("case %d (kind %d, %d shards): shard %d ranked %d, reference %d", ci, kind, shards, s, len(got), len(want))
			}
			for i, c := range want {
				if got[i] != c || math.Float64bits(got[i].Score) != math.Float64bits(ref[c]) {
					t.Fatalf("case %d (kind %d, %d shards): shard %d position %d: %s (%v), reference %s (%v)",
						ci, kind, shards, s, i, got[i].ID(), got[i].Score, c.ID(), ref[c])
				}
			}
		}
	}
}

func TestMOOPValidate(t *testing.T) {
	b := FileCountReduction{}
	if err := (MOOPRanker{}).Validate(); err == nil {
		t.Fatal("empty objectives accepted")
	}
	if err := (MOOPRanker{Objectives: []Objective{{Trait: b, Weight: 0.5}}}).Validate(); err == nil {
		t.Fatal("weights summing to 0.5 accepted")
	}
	if err := (MOOPRanker{Objectives: []Objective{{Trait: b, Weight: -1}, {Trait: b, Weight: 2}}}).Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	ok := MOOPRanker{Objectives: []Objective{{Trait: b, Weight: 0.7}, {Trait: b, Weight: 0.3}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	dyn := MOOPRanker{
		Objectives:     []Objective{{Trait: b}, {Trait: b}},
		DynamicWeights: QuotaAdaptiveWeights(),
	}
	if err := dyn.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaAdaptiveWeights(t *testing.T) {
	weights := QuotaAdaptiveWeights()
	w := func(c *Candidate) []float64 { return weights(c, nil) }
	c := &Candidate{Stats: Stats{QuotaUtilization: 0}}
	got := w(c)
	if got[0] != 0.5 || got[1] != 0.5 {
		t.Fatalf("empty tenant weights = %v", got)
	}
	c.Stats.QuotaUtilization = 1
	got = w(c)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("full tenant weights = %v", got)
	}
	c.Stats.QuotaUtilization = 0.5
	got = w(c)
	if math.Abs(got[0]-0.75) > 1e-12 {
		t.Fatalf("half tenant w1 = %v", got[0])
	}
	// Clamped outside [0,1].
	c.Stats.QuotaUtilization = 2
	if got := w(c); got[0] != 1 {
		t.Fatalf("overfull tenant w1 = %v", got[0])
	}
	// Appends to dst in place when it has room.
	buf := make([]float64, 0, 2)
	if got := weights(c, buf); len(got) != 2 || &got[0] != &buf[:1][0] {
		t.Fatalf("weights(c, buf) = %v, not appended to buf", got)
	}
}

func TestMOOPQuotaPressureRaisesPriority(t *testing.T) {
	benefit := FileCountReduction{}
	cost := TraitFunc{TraitName: "c", Dir: Cost}
	r := MOOPRanker{
		Objectives:     []Objective{{Trait: benefit}, {Trait: cost}},
		DynamicWeights: QuotaAdaptiveWeights(),
	}
	// Same benefit/cost traits; the candidate in the quota-squeezed
	// database must rank first because its w1 is larger.
	a := mkCand("a.t", map[string]float64{benefit.Name(): 100, "c": 100})
	a.Stats.QuotaUtilization = 0.95
	b := mkCand("b.t", map[string]float64{benefit.Name(): 100, "c": 100})
	b.Stats.QuotaUtilization = 0.05
	// Add a spread candidate so normalization is non-degenerate.
	z := mkCand("z.t", map[string]float64{benefit.Name(): 0, "c": 0})
	ranked := Rank(r, []*Candidate{b, a, z})
	if ranked[0].ID() != "a.t" {
		t.Fatalf("quota pressure ignored: first = %v", ranked[0].ID())
	}
}

func TestTopKSelector(t *testing.T) {
	cands := []*Candidate{mkCand("a.1", nil), mkCand("a.2", nil), mkCand("a.3", nil)}
	if got := (TopK{K: 2}).Select(cands); len(got) != 2 {
		t.Fatalf("topk = %d", len(got))
	}
	if got := (TopK{K: 0}).Select(cands); len(got) != 3 {
		t.Fatalf("k=0 = %d", len(got))
	}
	if got := (TopK{K: 10}).Select(cands); len(got) != 3 {
		t.Fatalf("k>n = %d", len(got))
	}
	if got := (SelectAll{}).Select(cands); len(got) != 3 {
		t.Fatal("select all")
	}
}

func TestBudgetSelectorGreedyFill(t *testing.T) {
	cost := ComputeCost{}.Name()
	slot := SlotComputeCost
	cands := []*Candidate{
		mkCand("a.1", map[string]float64{cost: 60}),
		mkCand("a.2", map[string]float64{cost: 30}),
		mkCand("a.3", map[string]float64{cost: 30}),
		mkCand("a.4", map[string]float64{cost: 5}),
	}
	sel := BudgetSelector{BudgetGBHr: 100}.Select(cands)
	// 60 + 30 fit; the second 30 exceeds the remaining 10 and is
	// skipped, but the 5 fits.
	if len(sel) != 3 {
		t.Fatalf("selected = %d", len(sel))
	}
	var total float64
	for _, c := range sel {
		total += c.Trait(slot)
	}
	if total > 100 {
		t.Fatalf("budget exceeded: %v", total)
	}
	if sel[2].ID() != "a.4" {
		t.Fatalf("skip-and-continue failed: %v", sel[2].ID())
	}
}

func TestBudgetSelectorMaxK(t *testing.T) {
	cost := ComputeCost{}.Name()
	var cands []*Candidate
	for i := 0; i < 10; i++ {
		cands = append(cands, mkCand("a.t"+itoa(i), map[string]float64{cost: 1}))
	}
	sel := BudgetSelector{BudgetGBHr: 100, MaxK: 4}.Select(cands)
	if len(sel) != 4 {
		t.Fatalf("maxk = %d", len(sel))
	}
}

// Property: budget selector never exceeds its budget.
func TestBudgetSelectorNeverExceedsProperty(t *testing.T) {
	cost := ComputeCost{}.Name()
	f := func(costs []uint8, budget uint16) bool {
		var cands []*Candidate
		for i, cVal := range costs {
			cands = append(cands, mkCand("db.t"+itoa(i), map[string]float64{cost: float64(cVal)}))
		}
		sel := BudgetSelector{BudgetGBHr: float64(budget)}.Select(cands)
		var total float64
		for _, c := range sel {
			total += c.Trait(SlotComputeCost)
		}
		return total <= float64(budget)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
