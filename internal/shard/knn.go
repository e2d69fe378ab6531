package shard

import (
	"container/heap"
	"context"

	"topk/internal/ranking"
)

// NearestNeighbors is NearestNeighborsContext without cancellation.
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
// trace: phase timings, the backends that answered and their distance-call
// cost.
func (s *Sharded) NearestNeighborsTracedContext(ctx context.Context, q ranking.Ranking, n int) ([]ranking.Result, QueryTrace, error) {
	if n <= 0 {
		return nil, QueryTrace{}, nil
	}
	var out []ranking.Result
	tr, err := s.scatter(ctx,
		func(i int) shardAnswer {
			res, backend, calls, err := s.shards[i].NearestNeighborsTraced(q, n)
			return shardAnswer{res: res, backend: backend, calls: calls, err: err}
		},
		func(parts []shardAnswer) { out = mergeNearest(parts, n) })
	return out, tr, err
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
