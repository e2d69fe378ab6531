// Package knn adds k-nearest-neighbor queries on top of the range-search
// structures. The paper targets range (threshold) queries; KNN is the
// companion query type its related-work section discusses (Fagin's NRA,
// KNN-to-range transformations à la Bruno et al.), and any practical
// deployment of a ranking index needs it. Two strategies are provided:
//
//   - BestFirst: an exact best-first traversal of a BK-tree using a
//     max-heap of the current n best candidates; subtrees are pruned with
//     the triangle inequality against the current n-th best distance.
//   - Expanding: a generic KNN-to-range reduction for any range-search
//     index: query with a doubling radius until n results are found, then
//     tighten to the exact n-th distance. Exact, and efficient whenever the
//     underlying range search is.
//
// The inverted index does not come through here: its rank-augmented postings
// determine exact distances by themselves, so it answers KNN natively in one
// pass (invindex.Searcher.NearestNeighbors) at a small fraction of the
// reduction's cost. Expanding remains the KNN of the structures that have
// nothing better — the coarse and blocked indexes, M- and VP-trees, and a
// hybrid pinned to one of them.
package knn

import (
	"container/heap"
	"slices"

	"topk/internal/bktree"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// resultHeap is a max-heap of results keyed by distance; the root is the
// current worst of the best n.
type resultHeap []ranking.Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return ranking.CompareNearest(h[i], h[j]) > 0 }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(ranking.Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// BestFirst returns the n nearest rankings to q in the BK-tree, ordered by
// distance (ties by id). It is exact: a subtree reached over edge e from a
// node at distance d can only contain objects at distance ≥ |d − e|, so it
// is skipped once |d − e| exceeds the current n-th best distance.
func BestFirst(t *bktree.Tree, q ranking.Ranking, n int, ev *metric.Evaluator) []ranking.Result {
	if ev == nil {
		ev = metric.New(nil)
	}
	if t.Root == nil || n <= 0 {
		return nil
	}
	best := &resultHeap{}
	var visit func(node *bktree.Node, d int32)
	consider := func(id ranking.ID, d int32) {
		r := ranking.Result{ID: id, Dist: int(d)}
		if best.Len() < n {
			heap.Push(best, r)
			return
		}
		if ranking.CompareNearest(r, (*best)[0]) > 0 {
			return
		}
		(*best)[0] = r
		heap.Fix(best, 0)
	}
	visit = func(node *bktree.Node, d int32) {
		consider(node.ID, d)
		for _, e := range node.Children {
			if e.Dist == 0 {
				// Duplicate chain: child's distance equals the parent's.
				visit(e.Child, d)
				continue
			}
			if best.Len() == n {
				gap := d - e.Dist
				if gap < 0 {
					gap = -gap
				}
				if int(gap) > (*best)[0].Dist {
					continue // subtree provably outside the current best n
				}
			}
			visit(e.Child, int32(ev.Distance(q, t.Ranking(e.Child.ID))))
		}
	}
	visit(t.Root, int32(ev.Distance(q, t.Ranking(t.Root.ID))))

	out := make([]ranking.Result, best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(ranking.Result)
	}
	return out
}

// RangeSearcher is any structure answering exact raw-threshold range
// queries; all indices in this library qualify.
type RangeSearcher interface {
	// Query returns all rankings within rawTheta of q with exact distances.
	Query(q ranking.Ranking, rawTheta int) ([]ranking.Result, error)
	// Len returns the collection size.
	Len() int
	// K returns the ranking size.
	K() int
}

// Expanding answers an exact KNN query through any RangeSearcher by
// doubling the search radius until at least n results are found, then
// keeping the n best. Each failed probe at radius r proves there are fewer
// than n results within r, so the final answer is exact. The probe radius
// is capped at dmax−1: inverted-index searchers cannot see zero-overlap
// rankings, but every ranking missing from the dmax−1 result is provably
// at distance exactly dmax and is back-filled directly, keeping Expanding
// exact over any of the library's searchers.
func Expanding(rs RangeSearcher, q ranking.Ranking, n int) ([]ranking.Result, error) {
	if n <= 0 || rs.Len() == 0 {
		return nil, nil
	}
	if n > rs.Len() {
		n = rs.Len()
	}
	dmax := ranking.MaxDistance(rs.K())
	cap := dmax - 1
	radius := min(2, cap)
	for {
		res, err := rs.Query(q, radius)
		if err != nil {
			return nil, err
		}
		if len(res) >= n || radius >= cap {
			slices.SortFunc(res, ranking.CompareNearest)
			if len(res) > n {
				return res[:n], nil
			}
			return backfillMax(res, rs, dmax, n), nil
		}
		radius = min(2*radius, cap)
	}
}

// backfillMax tops res up to n results with the smallest ids of the dense id
// space 0..Len()-1 missing from it, at distance dmax (the only distance a
// ranking outside radius dmax−1 can have). It walks the ids ascending and
// stops at the n-th result, so the fill is appended in (distance, id) order
// behind the sorted res.
func backfillMax(res []ranking.Result, rs RangeSearcher, dmax, n int) []ranking.Result {
	if len(res) >= n {
		return res
	}
	have := make([]ranking.ID, len(res))
	for i, r := range res {
		have[i] = r.ID
	}
	slices.Sort(have)
	for id := ranking.ID(0); int(id) < rs.Len() && len(res) < n; id++ {
		if len(have) > 0 && have[0] == id {
			have = have[1:]
			continue
		}
		res = append(res, ranking.Result{ID: id, Dist: dmax})
	}
	return res
}
