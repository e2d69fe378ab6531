package shard

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"

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

// NearestNeighbors answers an exact global KNN query: every shard computes
// its local top n in parallel, shard-local ids are remapped to global ids,
// and the per-shard answers — each already sorted by (distance, id) — are
// k-way merged with a heap and cut to the global top n. Because each shard's
// answer is exact over its chunk and the chunks partition the collection,
// the merged prefix is exactly the unsharded answer.
func (s *Sharded) NearestNeighbors(q ranking.Ranking, n int) ([]ranking.Result, error) {
	return s.NearestNeighborsContext(context.Background(), q, n)
}

// NearestNeighborsContext is NearestNeighbors with cancellation: ctx is
// checked on entry and before each per-shard local-KNN task, so an abandoned
// request stops scheduling shard work. A local KNN that has already started
// runs to completion (the cancellation grain is one shard task).
func (s *Sharded) NearestNeighborsContext(ctx context.Context, q ranking.Ranking, n int) ([]ranking.Result, error) {
	res, _, err := s.NearestNeighborsTracedContext(ctx, q, n)
	return res, err
}

// NearestNeighborsTracedContext is NearestNeighborsContext with a per-query
// trace: the same fan-out and merge (results are byte-identical), plus phase
// timings and — when the sub-indices support it — the backends that answered
// and their distance-call cost.
func (s *Sharded) NearestNeighborsTracedContext(ctx context.Context, q ranking.Ranking, n int) ([]ranking.Result, QueryTrace, error) {
	var tr QueryTrace
	if n <= 0 {
		return nil, tr, nil
	}
	for i, sh := range s.shards {
		if _, ok := sh.(NearestNeighborSearcher); !ok {
			return nil, tr, fmt.Errorf("shard %d: index kind does not support nearest neighbors", i)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, tr, err
	}
	parts := make([][]ranking.Result, len(s.shards))
	backends := make([]string, len(s.shards))
	calls := make([]uint64, len(s.shards))
	errs := make([]error, len(s.shards))
	fanStart := time.Now()
	var wg sync.WaitGroup
	for i := 1; i < len(s.shards); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			parts[i], backends[i], calls[i], errs[i] = s.nearestShard(i, q, n)
		}(i)
	}
	parts[0], backends[0], calls[0], errs[0] = s.nearestShard(0, q, n)
	wg.Wait()
	tr.FanoutMicros = float64(time.Since(fanStart).Nanoseconds()) / 1e3
	if err := firstError(errs); err != nil {
		return nil, tr, err
	}
	mergeStart := time.Now()
	tr.attribute(backends, calls)
	out := mergeNearest(parts, n)
	tr.MergeMicros = float64(time.Since(mergeStart).Nanoseconds()) / 1e3
	return out, tr, nil
}

// nearestShard runs one shard's local KNN — with backend attribution when
// the sub-index supports it — remaps ids, and records latency.
func (s *Sharded) nearestShard(i int, q ranking.Ranking, n int) ([]ranking.Result, string, uint64, error) {
	start := time.Now()
	var (
		res     []ranking.Result
		backend string
		calls   uint64
		err     error
	)
	if ts, ok := s.shards[i].(TracedNearestNeighborSearcher); ok {
		res, backend, calls, err = ts.NearestNeighborsTraced(q, n)
	} else {
		res, err = s.shards[i].(NearestNeighborSearcher).NearestNeighbors(q, n)
	}
	s.hists[i].Observe(time.Since(start))
	if err != nil {
		return nil, "", 0, err
	}
	if off := s.offsets[i]; off != 0 {
		for j := range res {
			res[j].ID += off
		}
	}
	return res, backend, calls, nil
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
	a, b := h[i].head(), h[j].head()
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
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
func mergeNearest(parts [][]ranking.Result, n int) []ranking.Result {
	h := make(nnMergeHeap, 0, len(parts))
	for _, p := range parts {
		if len(p) > 0 {
			h = append(h, nnCursor{res: p})
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
