package topk

import (
	"topk/internal/metric"
	"topk/internal/ranking"
)

// NearestNeighborSearcher is implemented by every index in this package:
// exact k-nearest-neighbor queries alongside the range queries of Index.
type NearestNeighborSearcher interface {
	// NearestNeighbors returns the n indexed rankings closest to q, ordered
	// by distance (ties broken by id). The answer is exact.
	NearestNeighbors(q Ranking, n int) ([]Result, error)
}

// rangeAdapter lifts a backend's raw search into knn.RangeSearcher for the
// expanding-radius reduction. Mutable indexes, whose id space can have
// tombstone holes, set space and dead (knn.Sparse); immutable kinds leave
// dead nil and space equal to live.
type rangeAdapter struct {
	query func(q Ranking, rawTheta int) ([]Result, error)
	live  int // indexed, non-tombstoned rankings
	space int // size of the id space query reports in
	dead  func(ID) bool
	k     int
}

func (a rangeAdapter) Query(q ranking.Ranking, rawTheta int) ([]ranking.Result, error) {
	return a.query(q, rawTheta)
}
func (a rangeAdapter) Len() int     { return a.live }
func (a rangeAdapter) K() int       { return a.k }
func (a rangeAdapter) IDSpace() int { return a.space }
func (a rangeAdapter) Live(id ranking.ID) bool {
	return a.dead == nil || !a.dead(id)
}

// NearestNeighbors implements NearestNeighborSearcher with an exact
// best-first BK-tree traversal for BKTree, and the expanding-radius
// reduction otherwise (see treeBackend.nearestRaw).
func (t *MetricTree) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	return nearestBackend(t.backend(), nil, &t.calls, q, n)
}

// rawSearch answers a raw-threshold range query with ev as the per-query
// counting evaluator.
func (t *MetricTree) rawSearch(q Ranking, raw int, ev *metric.Evaluator) ([]Result, error) {
	var out []Result
	switch t.kind {
	case BKTree:
		out = t.bk.RangeSearchResults(q, raw, ev)
	case MTree:
		for _, id := range t.mt.RangeSearch(q, raw, ev) {
			out = append(out, Result{ID: id, Dist: ranking.Footrule(q, t.rs[id])})
		}
	case VPTree:
		for _, id := range t.vp.RangeSearch(q, raw, ev) {
			out = append(out, Result{ID: id, Dist: ranking.Footrule(q, t.rs[id])})
		}
	}
	ranking.SortResults(out)
	return out, nil
}

// NearestNeighbors implements NearestNeighborSearcher via the
// expanding-radius reduction over the coarse index's range search.
func (c *CoarseIndex) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return nearestBackend(c.backend(), &c.mutationCore, &c.calls, q, n)
}

// NearestNeighbors implements NearestNeighborSearcher with the inverted
// index's native single-pass KNN (invindex.Searcher.NearestNeighbors),
// whatever range algorithm the index was configured with: one walk over the
// query's posting lists accumulates every overlapping ranking's exact
// distance from the posting ranks alone, so the call evaluates no distance
// function and adds nothing to DistanceCalls.
func (ii *InvertedIndex) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	ii.mu.RLock()
	defer ii.mu.RUnlock()
	return nearestBackend(ii.backend(), &ii.mutationCore, &ii.calls, q, n)
}

// NearestNeighbors implements NearestNeighborSearcher via the
// expanding-radius reduction over the blocked range search.
func (b *BlockedIndex) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	return nearestBackend(b.backend(), nil, &b.calls, q, n)
}
