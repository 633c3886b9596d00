package decideshard

import "autocomp/internal/core"

// MergeRanked merges per-shard rankings — each sorted by core.RankCompare
// with ties in input order — into one fully ranked list with a
// deterministic k-way heap. The output equals stable-sorting the
// concatenation (in shard order) by RankCompare, which is what the
// serial ranker returns: RankCompare decides between heads, and when two
// heads compare equal (tied score and tied ID, only possible with
// duplicate candidate IDs) the lower shard index wins, mirroring
// stable-sort order over shard-concatenated input. Emitting straight
// from the heap is O(n log S) and never re-sorts the merged tail —
// selectors consume a ready-ordered list.
//
// The full ranking is merged, not a truncated top-k: Decision.Ranked is
// part of the decision surface (fingerprints, traces, explainability
// funnels all print it), so byte parity requires every position, and
// the heap emits them already in order.
func MergeRanked(shards [][]*core.Candidate) []*core.Candidate {
	nonEmpty, total := 0, 0
	last := -1
	for s, part := range shards {
		if len(part) > 0 {
			nonEmpty++
			total += len(part)
			last = s
		}
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		return shards[last]
	}

	// cursor is one shard's read position in the heap.
	type cursor struct {
		part  []*core.Candidate
		shard int
		pos   int
	}
	less := func(a, b *cursor) bool {
		if c := core.RankCompare(a.part[a.pos], b.part[b.pos]); c != 0 {
			return c < 0
		}
		return a.shard < b.shard
	}
	heap := make([]*cursor, 0, nonEmpty)
	for s, part := range shards {
		if len(part) > 0 {
			heap = append(heap, &cursor{part: part, shard: s})
		}
	}
	// Standard binary-heap sift; container/heap would box every cursor
	// through an interface on this hot path.
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	for i := nonEmpty/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	out := make([]*core.Candidate, 0, total)
	for len(heap) > 0 {
		top := heap[0]
		out = append(out, top.part[top.pos])
		top.pos++
		if top.pos == len(top.part) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}
