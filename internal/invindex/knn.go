package invindex

import "topk/internal/ranking"

// NearestNeighbors returns the n live rankings closest to q, ordered by
// (distance, id), from the query's k posting lists alone — no range search,
// no radius schedule, no candidate validation.
//
// accumulate sums every admitted ranking's distance gain, reading the lists
// shortest first and closing admission once n live rankings hold more than
// any ranking not yet seen can still collect (see accumulate); the list of
// touched ids both enumerates the candidates and clears the accumulator
// afterwards. One bounded selection over the touched ids keeps the n best:
// an id whose gain is below the running n-th best is rejected inline,
// tombstones are skipped, the rest are offered to the heap. If admission is
// still open at the last list, accumulate only completes the touched ids'
// gains there, and the rankings that list alone holds are offered first, in
// id order, until the heap holds n of the most gain any of them can have.
// Only when fewer than n live rankings share an item with the query —
// admission cannot have closed then — are the remaining slots filled with
// untouched live rankings, all at distance exactly dmax = k(k+1), in
// ascending id order.
//
// ext, when non-nil, is the owner's internal→external id map for an id
// space whose external order differs from the internal one (an Update moved
// an external id to a later slot): ties at equal distance are then decided
// by ext[id], so cutting at n keeps the members the external (distance, id)
// order keeps. Returned ids are internal either way. With ext nil the last
// list's walk and the dmax fill stop at the n-th result; with ext set they
// must consider every ranking they reach.
//
// Like ListMerge the routine never calls the distance function: it adds
// nothing to any DFC counter (the paper's Figure 10 convention). The
// accumulator costs 2 bytes per indexed ranking per searcher, allocated on
// the searcher's first accumulate and grown with the collection.
func (s *Searcher) NearestNeighbors(q ranking.Ranking, n int, ext []ranking.ID) ([]ranking.Result, error) {
	if err := ranking.Check(q, s.idx.K()); err != nil {
		return nil, err
	}
	return s.nearestNeighbors(q, n, ext), nil
}

// nearestNeighbors is NearestNeighbors for a query its caller has checked.
func (s *Searcher) nearestNeighbors(q ranking.Ranking, n int, ext []ranking.ID) []ranking.Result {
	idx := s.idx
	if live := idx.Live(); n > live {
		n = live
	}
	if n <= 0 {
		return nil
	}
	pos := s.byListLength(q)
	touched, _, open := s.accumulate(q, pos, n)
	acc := s.acc

	k, dmax := len(q), ranking.MaxDistance(len(q))
	dels := idx.deleted
	sel := nnSelect{heap: s.res[:0], n: n, ext: ext}
	var last []ranking.ID // the open last list, read whole if the fill runs
	if open {
		// The last list's own rankings are those accumulate left at 0. Each
		// one's gain 2·(k − max(qr, rank)) is exact and at most 2·(k − qr), so
		// once the heap holds n of them at floor, every later id can only tie
		// and lose on its larger id (ext nil), or lose outright.
		qr := pos[0]
		ids, ranks := idx.list(s.spans[qr])
		last = ids
		floor, read := dmax-2*(k-qr), len(ids)
		for j, id := range ids {
			if acc[id] != 0 || (dels != nil && dels[id]) {
				continue
			}
			sel.offer(dmax-2*(k-max(qr, int(ranks[j]))), id)
			if ext == nil && len(sel.heap) == n && sel.heap[0].Dist <= floor {
				read = j + 1
				s.exits++
				break
			}
		}
		s.offered += read
	}
	minGain := 0 // below the n-th best so far: cannot enter the full heap
	for _, id := range touched {
		a := int(acc[id])
		acc[id] = 0
		if a < minGain || (dels != nil && dels[id]) {
			continue
		}
		sel.offer(dmax-a, id)
		if len(sel.heap) == n {
			minGain = dmax - sel.heap[0].Dist
		}
	}
	if len(sel.heap) < n {
		// Fewer than n live rankings overlap the query: every other live
		// ranking is at distance exactly dmax. Mark the overlapping ids — the
		// touched ones and the whole open last list — so the ascending walk can
		// tell them apart, then clear again.
		mark(acc, touched, 1)
		mark(acc, last, 1)
		for id := range idx.Len() {
			if acc[id] != 0 || (dels != nil && dels[id]) {
				continue
			}
			if len(sel.heap) == n && ext == nil {
				break // ascending ids at one distance: nothing later can rank earlier
			}
			sel.offer(dmax, ranking.ID(id))
		}
		mark(acc, touched, 0)
		mark(acc, last, 0)
	}
	out := make([]ranking.Result, len(sel.heap))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = sel.pop()
	}
	s.res = sel.heap[:0]
	return out
}

// mark sets the accumulator cell of every id in ids to v.
func mark(acc []uint16, ids []ranking.ID, v uint16) {
	for _, id := range ids {
		acc[id] = v
	}
}

// nnSelect keeps the n smallest (distance, id) pairs offered to it in a
// bounded max-heap over the searcher's pooled result buffer: the root is the
// current worst of the best n, so most offers are rejected by one comparison.
// Hand-rolled rather than container/heap, whose interface boxing would
// allocate per push.
type nnSelect struct {
	heap []ranking.Result
	n    int
	ext  []ranking.ID // nil: ties ordered by the id itself
}

// after reports whether a ranks after b in (distance, id) order.
func (h *nnSelect) after(a, b ranking.Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	if h.ext != nil {
		return h.ext[a.ID] > h.ext[b.ID]
	}
	return a.ID > b.ID
}

func (h *nnSelect) offer(d int, id ranking.ID) {
	r := ranking.Result{ID: id, Dist: d}
	if len(h.heap) < h.n {
		h.heap = append(h.heap, r)
		i := len(h.heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !h.after(h.heap[i], h.heap[parent]) {
				break
			}
			h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
			i = parent
		}
		return
	}
	if d > h.heap[0].Dist || !h.after(h.heap[0], r) {
		return
	}
	h.heap[0] = r
	h.down()
}

// pop removes and returns the current worst entry.
func (h *nnSelect) pop() ranking.Result {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	h.down()
	return top
}

// down restores the heap property from the root.
func (h *nnSelect) down() {
	i, n := 0, len(h.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.after(h.heap[l], h.heap[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.after(h.heap[r], h.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.heap[i], h.heap[worst] = h.heap[worst], h.heap[i]
		i = worst
	}
}
