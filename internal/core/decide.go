package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Ranker orders candidates for execution (the decide phase, §4.3). Its
// cross-candidate state factors into a cheap, exactly-mergeable
// per-shard summary, so ranking fans out across decide shards and still
// produces the scores a whole-pool ranking would:
//
//	stats_s := ShardStats(shard_s)            // per shard, in parallel
//	global := MergeStats([]any{stats_0, …})   // serial, cheap
//	ranked_s := RankShard(shard_s, global)    // per shard, in parallel
//
// The contract RankShard must honor: for any partition of a pool, the
// multiset of (candidate, Score) pairs across all RankShard outputs
// equals Rank's output over the whole pool, each output is sorted by
// RankCompare, and candidates the policy rejects outright are omitted. The
// sharded decide plane (internal/decideshard) then k-way-merges the
// sorted shards into the exact whole-pool ranking.
type Ranker interface {
	// ShardStats summarizes one shard's candidates (nil when the ranker
	// needs no cross-candidate state).
	ShardStats(cands []*Candidate) any
	// MergeStats folds per-shard summaries into the global state handed
	// to every RankShard call. It must be order-independent.
	MergeStats(parts []any) any
	// RankShard sets each candidate's Score against the global state and
	// returns the admitted ones in a new slice sorted by RankCompare.
	RankShard(cands []*Candidate, global any) []*Candidate
}

// slotOf resolves a trait's slot in the set cands were oriented with
// (-1 when they were not). One Orient call stamps a whole pool with one
// set, so rankers resolve their slots once per call.
func slotOf(cands []*Candidate, t Trait) int {
	if len(cands) == 0 {
		return -1
	}
	return cands[0].TraitSet.Slot(t.Name())
}

// Rank ranks a whole pool: the one-shard case of the Ranker contract,
// so serial and sharded scores are bit-identical by construction.
func Rank(r Ranker, cands []*Candidate) []*Candidate {
	return r.RankShard(cands, r.MergeStats([]any{r.ShardStats(cands)}))
}

// ThresholdPolicy is the unconstrained-resource decision function (§4.3):
// a candidate passes when the named trait meets the threshold, and its
// score is the raw trait value. The paper's example: trigger when the
// estimated file-count reduction reaches at least 10%.
type ThresholdPolicy struct {
	Trait     Trait
	Threshold float64
}

// ShardStats implements Ranker: threshold admission is purely
// per-candidate, so no cross-shard statistics are needed.
func (p ThresholdPolicy) ShardStats(cands []*Candidate) any { return nil }

// MergeStats implements Ranker.
func (p ThresholdPolicy) MergeStats(parts []any) any { return nil }

// RankShard implements Ranker: admission and scoring depend only on the
// candidate itself, so each shard ranks independently.
func (p ThresholdPolicy) RankShard(cands []*Candidate, _ any) []*Candidate {
	slot := slotOf(cands, p.Trait)
	var out []*Candidate
	var keys []uint64
	for _, c := range cands {
		v := c.Trait(slot)
		if v >= p.Threshold {
			c.Score = v
			out = append(out, c)
			keys = append(keys, scoreKey(v))
		}
	}
	return rankSorted(out, keys)
}

// Objective is one weighted term of the scalarized MOOP function.
type Objective struct {
	Trait Trait
	// Weight is the term's relative importance; weights must sum to 1.
	Weight float64
}

// MOOPRanker implements the resource-constrained scenario (§4.3): the
// multi-objective optimization problem is scalarized into a weighted sum
// over min-max-normalized traits,
//
//	S_c = Σ_i w_i × T'_i,c        (benefit terms add, cost terms subtract)
//
// with T'_i,c = (T_i,c − min T_i) / (max T_i − min T_i).
type MOOPRanker struct {
	Objectives []Objective
	// DynamicWeights, when set, appends per-candidate weights (summing
	// to 1) to dst and returns the result, overriding the static ones —
	// the LinkedIn deployment derives w1 from quota utilization (§7).
	// RankShard passes a buffer it reuses for every candidate.
	DynamicWeights func(c *Candidate, dst []float64) []float64
}

// slots resolves each objective's trait slot in cands' set.
func (r MOOPRanker) slots(cands []*Candidate) []int {
	out := make([]int, len(r.Objectives))
	for i, o := range r.Objectives {
		out[i] = slotOf(cands, o.Trait)
	}
	return out
}

// Validate checks that weights are present and sum to 1 (±1e-6).
func (r MOOPRanker) Validate() error {
	if len(r.Objectives) == 0 {
		return fmt.Errorf("core: MOOPRanker needs at least one objective")
	}
	if r.DynamicWeights != nil {
		return nil // dynamic weights are validated per candidate
	}
	sum := 0.0
	for _, o := range r.Objectives {
		if o.Weight < 0 {
			return fmt.Errorf("core: negative weight %v for %s", o.Weight, o.Trait.Name())
		}
		sum += o.Weight
	}
	if sum < 1-1e-6 || sum > 1+1e-6 {
		return fmt.Errorf("core: objective weights sum to %v, want 1", sum)
	}
	return nil
}

// moopBounds carries per-objective trait extrema. Min/max merge exactly
// across shards (no accumulation, no rounding), which is what makes the
// sharded MOOP byte-identical to the serial one: the global bounds —
// and therefore every candidate's normalized terms — are the same
// float64s either way.
type moopBounds struct {
	min, max []float64
	n        int // candidates folded in; 0 = no bounds yet
}

// ShardStats implements Ranker: the per-objective min/max over
// this shard's candidates, the only cross-candidate state min-max
// normalization needs.
func (r MOOPRanker) ShardStats(cands []*Candidate) any {
	b := &moopBounds{
		min: make([]float64, len(r.Objectives)),
		max: make([]float64, len(r.Objectives)),
	}
	slots := r.slots(cands)
	for _, c := range cands {
		for i, slot := range slots {
			v := c.Trait(slot)
			if b.n == 0 {
				b.min[i], b.max[i] = v, v
				continue
			}
			if v < b.min[i] {
				b.min[i] = v
			}
			if v > b.max[i] {
				b.max[i] = v
			}
		}
		b.n++
	}
	return b
}

// MergeStats implements Ranker: fold per-shard bounds into the
// global ones. Order-independent and exact.
func (r MOOPRanker) MergeStats(parts []any) any {
	out := &moopBounds{
		min: make([]float64, len(r.Objectives)),
		max: make([]float64, len(r.Objectives)),
	}
	for _, p := range parts {
		b, ok := p.(*moopBounds)
		if !ok || b == nil || b.n == 0 {
			continue
		}
		if out.n == 0 {
			copy(out.min, b.min)
			copy(out.max, b.max)
			out.n = b.n
			continue
		}
		for i := range r.Objectives {
			if b.min[i] < out.min[i] {
				out.min[i] = b.min[i]
			}
			if b.max[i] > out.max[i] {
				out.max[i] = b.max[i]
			}
		}
		out.n += b.n
	}
	return out
}

// RankShard implements Ranker: score this shard's candidates against
// the global bounds and sort them. Normalization follows
// metrics.MinMaxNormalize exactly — constant traits map to zero, the
// division uses halved operands so extreme spans cannot overflow, and
// the result clamps to [0,1] — so the scores match the paper's
// whole-pool min-max scalarization, bit for bit.
func (r MOOPRanker) RankShard(cands []*Candidate, global any) []*Candidate {
	if len(cands) == 0 {
		return nil
	}
	b, _ := global.(*moopBounds)
	static := make([]float64, len(r.Objectives))
	for i, o := range r.Objectives {
		static[i] = o.Weight
	}
	slots := r.slots(cands)
	buf := make([]float64, 0, len(r.Objectives))
	keys := make([]uint64, len(cands), 2*len(cands))
	for ci, c := range cands {
		weights := static
		if r.DynamicWeights != nil {
			if buf = r.DynamicWeights(c, buf[:0]); len(buf) == len(r.Objectives) {
				weights = buf
			}
		}
		score := 0.0
		for i, o := range r.Objectives {
			var norm float64
			if b != nil && b.n > 0 && b.max[i] != b.min[i] {
				span := b.max[i]/2 - b.min[i]/2
				norm = (c.Trait(slots[i])/2 - b.min[i]/2) / span
				if norm < 0 {
					norm = 0
				}
				if norm > 1 {
					norm = 1
				}
			}
			term := weights[i] * norm
			if o.Trait.Direction() == Cost {
				score -= term
			} else {
				score += term
			}
		}
		c.Score = score
		keys[ci] = scoreKey(score)
	}
	return rankSorted(cands, keys)
}

// QuotaAdaptiveWeights returns a DynamicWeights function for a
// two-objective MOOP (benefit, cost) implementing the paper's production
// weighting (§7):
//
//	w1 = 0.5 × (1 + UsedQuota/TotalQuota),  w2 = 1 − w1
//
// A tenant at quota gets w1 = 1 (pure benefit); an empty tenant gets
// w1 = 0.5 (balanced). The function appends (w1, w2) to dst.
func QuotaAdaptiveWeights() func(c *Candidate, dst []float64) []float64 {
	return func(c *Candidate, dst []float64) []float64 {
		u := c.Stats.QuotaUtilization
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		w1 := 0.5 * (1 + u)
		return append(dst, w1, 1-w1)
	}
}

// RankCompare is the ranking order as a three-way comparison, the form
// slices.SortFunc takes: descending score, ties broken by candidate ID
// so identical inputs always produce identical rankings (NFR2). Scores
// compare with != and >, so −0 and +0 tie. It is a total order whenever
// candidate IDs are unique — true for every generator configuration
// shipped here — which is what lets the sharded decide plane merge
// independently sorted shards into the exact serial ordering.
func RankCompare(a, b *Candidate) int {
	if c := compareScores(a.Score, b.Score); c != 0 {
		return c
	}
	return strings.Compare(a.ID(), b.ID())
}

// compareScores orders scores descending.
func compareScores(a, b float64) int {
	if a != b {
		if a > b {
			return -1
		}
		return 1
	}
	return 0
}

// scoreKey maps a score to a key whose ascending order is the ranking's
// score order: descending, −0 folded into +0 (compareScores ties them),
// and every NaN canonicalized to the largest key, after −Inf.
func scoreKey(s float64) uint64 {
	switch {
	case s != s:
		return math.MaxUint64
	case s == 0:
		s = 0
	}
	b := math.Float64bits(s)
	if b>>63 == 0 {
		return ^(b | 1<<63)
	}
	return b
}

// compareIDs is strings.Compare(a.ID(), b.ID()) without building
// either ID: it walks the two IDs' pieces side by side.
func compareIDs(a, b *Candidate) int {
	pa, pb := a.idParts(), b.idParts()
	i, j := 0, 0
	sa, sb := pa[0], pb[0]
	for {
		for sa == "" && i+1 < len(pa) {
			i++
			sa = pa[i]
		}
		for sb == "" && j+1 < len(pb) {
			j++
			sb = pb[j]
		}
		if sa == "" || sb == "" {
			return cmp.Compare(len(sa), len(sb))
		}
		m := min(len(sa), len(sb))
		if c := strings.Compare(sa[:m], sb[:m]); c != 0 {
			return c
		}
		sa, sb = sa[m:], sb[m:]
	}
}

// radixBits is the rank sort's digit width: an 11-bit digit keeps the
// histogram at 16 KB.
const radixBits = 11

// rankSorted returns cands permuted into RankCompare order, in a new
// slice. keys[i] must be scoreKey(cands[i].Score); rankSorted
// overwrites keys and uses cap(keys) up to 2·len(keys) as the sort's
// second buffer, so a caller that allocates that much saves a copy.
//
// Each key's low bits.Len(n−1) bits are replaced by the candidate's
// input position, and a stable LSD radix sort orders the keys on the
// bits above it, skipping every digit all keys share. Keys whose high
// bits tie (equal scores, or scores a few ulps apart) form runs, each
// ordered in place by full score key, then ID, then position; only
// those comparisons read a candidate. The result equals a stable sort
// by RankCompare for every pool without NaN scores, duplicate IDs
// included, and NaN scores rank after every number.
func rankSorted(cands []*Candidate, keys []uint64) []*Candidate {
	n := len(cands)
	if n == 0 {
		return nil
	}
	keys = slices.Grow(keys, n)
	src, dst := keys[:n], keys[n:2*n]
	shift := uint(bits.Len(uint(n - 1)))
	low := uint64(1)<<shift - 1
	var diff uint64 // the bits above the position where keys differ
	first := src[0] &^ low
	for i, k := range src {
		k &^= low
		diff |= k ^ first
		src[i] = k | uint64(i)
	}
	const mask = 1<<radixBits - 1
	var count [1 << radixBits]int
	for s := shift; s < 64; s += radixBits {
		if diff>>s&mask == 0 {
			continue
		}
		clear(count[:])
		for _, k := range src {
			count[k>>s&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> s & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	byFull := func(a, b uint64) int {
		ca, cb := cands[a&low], cands[b&low]
		if c := cmp.Compare(scoreKey(ca.Score), scoreKey(cb.Score)); c != 0 {
			return c
		}
		if c := compareIDs(ca, cb); c != 0 {
			return c
		}
		return cmp.Compare(a&low, b&low)
	}
	out := make([]*Candidate, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j]>>shift == src[i]>>shift {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], byFull)
		}
		for ; i < j; i++ {
			out[i] = cands[src[i]&low]
		}
	}
	return out
}

// Selector picks the work units to execute from the ranked list (§4.3).
type Selector interface {
	Select(ranked []*Candidate) []*Candidate
}

// TopK selects the k highest-ranked candidates — LinkedIn's initial
// fixed-k rollout (§7: k≈10 for predictable behaviour).
type TopK struct{ K int }

// Select implements Selector.
func (s TopK) Select(ranked []*Candidate) []*Candidate {
	if s.K <= 0 || s.K >= len(ranked) {
		return ranked
	}
	return ranked[:s.K]
}

// BudgetSelector greedily fits as many high-priority candidates as
// possible within a compute budget, reading each candidate's estimated
// cost from its compute_cost_gbhr slot — the paper's dynamic-k
// selection (§4.3, §7: 226 TBHr ⇒ k≈2500). Candidates whose cost
// exceeds the remaining budget are skipped, not terminal: a cheaper
// lower-ranked candidate may still fit.
type BudgetSelector struct {
	// BudgetGBHr is the total compute budget per run.
	BudgetGBHr float64
	// MaxK optionally caps the number selected regardless of budget.
	MaxK int
}

// Select implements Selector.
func (s BudgetSelector) Select(ranked []*Candidate) []*Candidate {
	var out []*Candidate
	remaining := s.BudgetGBHr
	for _, c := range ranked {
		if s.MaxK > 0 && len(out) >= s.MaxK {
			break
		}
		cost := c.Trait(SlotComputeCost)
		if cost > remaining {
			continue
		}
		remaining -= cost
		out = append(out, c)
	}
	return out
}

// SelectAll passes every ranked candidate through (useful with
// ThresholdPolicy, which already gates admission).
type SelectAll struct{}

// Select implements Selector.
func (SelectAll) Select(ranked []*Candidate) []*Candidate { return ranked }
