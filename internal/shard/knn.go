package shard

import (
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
// id) — are merged and cut to the global top n. Because each shard's answer
// is exact over its chunk and the chunks partition the collection, the merged
// prefix is exactly the unsharded answer.
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

// mergeNearest merges the per-shard KNN answers, each sorted by (distance,
// id), into the global top n. It consumes parts — a taken head is sliced off
// its run — so the output is the merge's one allocation.
func mergeNearest(parts []shardAnswer, n int) []ranking.Result {
	total := 0
	for i := range parts {
		total += len(parts[i].res)
	}
	out := make([]ranking.Result, 0, min(n, total))
	for len(out) < cap(out) {
		best := -1
		for i := range parts {
			if r := parts[i].res; len(r) > 0 && (best < 0 || ranking.CompareNearest(r[0], parts[best].res[0]) < 0) {
				best = i
			}
		}
		out = append(out, parts[best].res[0])
		parts[best].res = parts[best].res[1:]
	}
	return out
}
