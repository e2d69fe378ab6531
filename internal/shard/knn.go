package shard

import (
	"container/heap"
	"context"
	"fmt"

	"topk/internal/ranking"
)

// NearestNeighborSearcher is the structural KNN interface of sub-indices
// (every index kind of package topk implements it).
type NearestNeighborSearcher interface {
	// NearestNeighbors returns the n indexed rankings closest to q, ordered
	// by distance (ties broken by id). The answer is exact.
	NearestNeighbors(q ranking.Ranking, n int) ([]ranking.Result, error)
}

// TracedNearestNeighborSearcher is the optional sub-index interface behind
// NearestNeighborsTracedContext: kinds that can attribute a KNN query to the
// concrete backend that answered it and report its distance-call cost
// (topk.HybridIndex). Sub-indices without it contribute no attribution.
type TracedNearestNeighborSearcher interface {
	NearestNeighborsTraced(q ranking.Ranking, n int) ([]ranking.Result, string, uint64, error)
}

// NearestNeighbors implements NearestNeighborSearcher:
// NearestNeighborsContext without cancellation.
func (s *Sharded) NearestNeighbors(q ranking.Ranking, n int) ([]ranking.Result, error) {
	return s.NearestNeighborsContext(context.Background(), q, n)
}

// NearestNeighborsContext answers an exact global KNN query: every shard
// computes its local top n in parallel, shard-local ids are remapped to
// global ids, and the per-shard answers — each already sorted by (distance,
// id) — are k-way merged with a heap and cut to the global top n. Because
// each shard's answer is exact over its chunk and the chunks partition the
// collection, the merged prefix is exactly the unsharded answer.
// Cancellation works as in SearchContext.
func (s *Sharded) NearestNeighborsContext(ctx context.Context, q ranking.Ranking, n int) ([]ranking.Result, error) {
	res, _, err := s.NearestNeighborsTracedContext(ctx, q, n)
	return res, err
}

// NearestNeighborsTracedContext is NearestNeighborsContext with a per-query
// trace: phase timings and — when the sub-indices support it — the backends
// that answered and their distance-call cost.
func (s *Sharded) NearestNeighborsTracedContext(ctx context.Context, q ranking.Ranking, n int) ([]ranking.Result, QueryTrace, error) {
	if n <= 0 {
		return nil, QueryTrace{}, nil
	}
	for i, sh := range s.shards {
		if _, ok := sh.(NearestNeighborSearcher); !ok {
			return nil, QueryTrace{}, fmt.Errorf("shard %d: index kind does not support nearest neighbors", i)
		}
	}
	var out []ranking.Result
	tr, err := s.scatter(ctx,
		func(i int) shardAnswer { return s.nearestShard(i, q, n) },
		func(parts []shardAnswer) { out = mergeNearest(parts, n) })
	return out, tr, err
}

// nearestShard runs one shard's local KNN, with backend attribution when
// the sub-index supports it.
func (s *Sharded) nearestShard(i int, q ranking.Ranking, n int) shardAnswer {
	if ts, ok := s.shards[i].(TracedNearestNeighborSearcher); ok {
		res, backend, calls, err := ts.NearestNeighborsTraced(q, n)
		return shardAnswer{res: res, backend: backend, calls: calls, err: err}
	}
	res, err := s.shards[i].(NearestNeighborSearcher).NearestNeighbors(q, n)
	return shardAnswer{res: res, err: err}
}

// nnCursor walks one shard's (distance, id)-sorted answer during the merge.
type nnCursor struct {
	res []ranking.Result
	pos int
}

func (c nnCursor) head() ranking.Result { return c.res[c.pos] }

// nnMergeHeap is a min-heap of cursors ordered by their head result's
// (distance, id) — the global KNN order.
type nnMergeHeap []nnCursor

func (h nnMergeHeap) Len() int { return len(h) }
func (h nnMergeHeap) Less(i, j int) bool {
	return ranking.CompareNearest(h[i].head(), h[j].head()) < 0
}
func (h nnMergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnMergeHeap) Push(x interface{}) { *h = append(*h, x.(nnCursor)) }
func (h *nnMergeHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mergeNearest k-way merges per-shard KNN answers by (distance, id) and
// returns the global top n.
func mergeNearest(parts []shardAnswer, n int) []ranking.Result {
	h := make(nnMergeHeap, 0, len(parts))
	for _, p := range parts {
		if len(p.res) > 0 {
			h = append(h, nnCursor{res: p.res})
		}
	}
	heap.Init(&h)
	var out []ranking.Result
	for len(h) > 0 && len(out) < n {
		c := h[0]
		out = append(out, c.head())
		c.pos++
		if c.pos < len(c.res) {
			h[0] = c
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}
