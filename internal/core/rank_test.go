package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// rankByScores ranks cands on their preset scores through the rank
// kernel, keying them as the rankers do.
func rankByScores(cands []*Candidate) []*Candidate {
	keys := make([]uint64, len(cands), 2*len(cands))
	for i, c := range cands {
		keys[i] = scoreKey(c.Score)
	}
	return rankSorted(cands, keys)
}

// checkRankOrder is the rank kernel's oracle. Ranking cands on their
// preset scores must leave the input as it was and return each
// candidate once: first the numbers, in the order a stable sort by
// rankLessRef gives them, then the NaN-scored ones, which tie each
// other, by ID and then input position.
func checkRankOrder(t *testing.T, cands []*Candidate) {
	t.Helper()
	in := slices.Clone(cands)
	got := rankByScores(cands)
	if !slices.Equal(cands, in) {
		t.Fatalf("rank permuted its input")
	}
	var want, nans []*Candidate
	for _, c := range in {
		if math.IsNaN(c.Score) {
			nans = append(nans, c)
		} else {
			want = append(want, c)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return rankLessRef(want[i], want[j]) })
	sort.SliceStable(nans, func(i, j int) bool { return nans[i].ID() < nans[j].ID() })
	want = append(want, nans...)
	if len(got) != len(want) {
		t.Fatalf("ranked %d candidates, input %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d of %d: %s (%v), reference %s (%v)",
				i, len(want), got[i].ID(), got[i].Score, want[i].ID(), want[i].Score)
		}
	}
}

// rankNames are table names whose IDs meet across ID pieces: table
// "a/b" shares its ID with partition b of table "a", "a@fresh" with
// table a's snapshot scope, and "a/b#snapshot-expiry" with that
// partition's expiry.
var rankNames = []string{"a", "a.b", "a/b", "a@fresh", "b", "a/b#snapshot-expiry", "db.t0", "db.t1"}

// rankCand builds an unranked candidate whose ID sel picks: a table
// name, a scope, a partition and an action.
func rankCand(sel byte, score float64) *Candidate {
	return &Candidate{
		Table:     fakeTable{name: rankNames[sel&7]},
		Scope:     Scope((sel >> 3 & 3) % 3),
		Partition: string('b' + rune(sel>>5&1)),
		Action:    ActionType(sel >> 6),
		Score:     score,
	}
}

// floatOrd numbers float64s in order, ±0 both 0.
func floatOrd(x float64) int64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return -int64(b &^ (1 << 63))
	}
	return int64(b)
}

// ulpStep returns x moved d representable values up (down for d < 0),
// clamped to ±Inf; x itself, −0 included, for d = 0.
func ulpStep(x float64, d int64) float64 {
	if d == 0 {
		return x
	}
	const inf = int64(0x7FF0000000000000)
	o := max(-inf, min(inf, floatOrd(x)+d))
	if o < 0 {
		return math.Float64frombits(uint64(-o) | 1<<63)
	}
	return math.Float64frombits(uint64(o))
}

// TestRankKernelMatchesStableSortProperty checks the rank kernel
// against a stable sort by rankLessRef at its edges. Pool sizes are
// 2^k and 2^k+1 up to 2^17+1 (2^14+1 under -short), so the position
// bits take every width from 0 to 18. Every size gets a pool clustered
// within 8 ulps of about n/16 anchors of random bits (an occasional NaN
// among them checks the NaN tail at size); sizes up to 2^13+1 also get
// three pools around ±0, ±0.5, 1, ±Inf and the smallest subnormals:
// exactly on them (−0 included), within 3 ulps, and spread over 2^20
// ulps. So most keys share their high bits with a neighbour and the
// fix-up decides their order. IDs come from rankNames across every
// scope and action, so equal IDs are common.
func TestRankKernelMatchesStableSortProperty(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	pool := func(rng *rand.Rand, n int, anchors []float64, spread int64) []*Candidate {
		cands := make([]*Candidate, n)
		for i := range cands {
			d := rng.Int64N(2*spread+1) - spread
			x := ulpStep(anchors[rng.IntN(len(anchors))], d)
			cands[i] = rankCand(byte(rng.UintN(256)), x)
		}
		return cands
	}
	maxK := 17
	if testing.Short() {
		maxK = 14
	}
	for k := 0; k <= maxK; k++ {
		for _, n := range []int{1 << k, 1<<k + 1} {
			rng := rand.New(rand.NewPCG(31, uint64(n)))
			anchors := slices.Clone(edges)
			for len(anchors) < n/16 {
				anchors = append(anchors, math.Float64frombits(rng.Uint64()))
			}
			checkRankOrder(t, pool(rng, n, anchors, 8))
			if k > 13 {
				continue
			}
			for _, spread := range []int64{0, 3, 1 << 20} {
				checkRankOrder(t, pool(rng, n, edges, spread))
			}
		}
	}
}

// TestRankPutsNaNLast pins that NaN scores, whatever their sign or
// payload, rank after every number, −Inf included, and that none is
// lost.
func TestRankPutsNaNLast(t *testing.T) {
	nans := []float64{
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
	}
	numbers := []float64{math.Inf(-1), math.Inf(1), -1, 0, math.Copysign(0, -1), 1, -math.MaxFloat64}
	for _, n := range []int{1, 2, 7, 64, 1000} {
		rng := rand.New(rand.NewPCG(29, uint64(n)))
		cands := make([]*Candidate, n)
		for i := range cands {
			x := numbers[rng.IntN(len(numbers))]
			if rng.IntN(3) == 0 {
				x = nans[rng.IntN(len(nans))]
			}
			cands[i] = rankCand(byte(rng.UintN(256)), x)
		}
		checkRankOrder(t, cands)
	}
}

// FuzzRankOrder checks the rank kernel's oracle on pools read from the
// input: nine bytes a candidate, a little-endian float64 score and an
// ID selector (see rankCand).
func FuzzRankOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cands := make([]*Candidate, 0, len(data)/9)
		for ; len(data) >= 9; data = data[9:] {
			score := math.Float64frombits(binary.LittleEndian.Uint64(data))
			cands = append(cands, rankCand(data[8], score))
		}
		checkRankOrder(t, cands)
	})
}
