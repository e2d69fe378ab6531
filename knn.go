package topk

import "topk/internal/ranking"

// NearestNeighborSearcher is implemented by every index in this package:
// exact k-nearest-neighbor queries alongside the range queries of Index.
type NearestNeighborSearcher interface {
	// NearestNeighbors returns the n indexed rankings closest to q, ordered
	// by distance (ties broken by id). The answer is exact.
	NearestNeighbors(q Ranking, n int) ([]Result, error)
}

// rangeAdapter lifts a backend's raw search into knn.RangeSearcher for the
// expanding-radius reduction.
type rangeAdapter struct {
	query func(q Ranking, rawTheta int) ([]Result, error)
	live  int // indexed rankings, ids 0..live-1
	k     int
}

func (a rangeAdapter) Query(q ranking.Ranking, rawTheta int) ([]ranking.Result, error) {
	return a.query(q, rawTheta)
}
func (a rangeAdapter) Len() int { return a.live }
func (a rangeAdapter) K() int   { return a.k }
