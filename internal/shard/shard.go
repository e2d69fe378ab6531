// Package shard is one index behind the API the end-to-end harness in
// benchmark/ compiles against: one shard at offset 0, a context check before
// each call, a batch as a member loop. Nothing shards any more —
// cmd/topkserve serves each collection from one invindex.Mutable, whose
// whole-collection Lemma 2 and KNN admission bounds are tighter than
// per-shard ones — so the package keeps its shard-shaped names only for the
// harness, and goes once the harness stops calling them.
package shard

import (
	"context"
	"fmt"

	"topk/internal/ranking"
)

// Index is what Sharded needs of the index it wraps — package topk's
// InvertedIndex and HybridIndex.
type Index interface {
	// Search returns all indexed rankings within normalized Footrule distance
	// theta of q, sorted by ID, with exact distances.
	Search(q ranking.Ranking, theta float64) ([]ranking.Result, error)
	// NearestNeighbors returns the n indexed rankings closest to q, ordered
	// by distance (ties broken by id).
	NearestNeighbors(q ranking.Ranking, n int) ([]ranking.Result, error)
	// Insert adds a ranking and returns its new ID.
	Insert(r ranking.Ranking) (ranking.ID, error)
	// Delete removes the ranking with the given ID.
	Delete(id ranking.ID) error
	// Update replaces the ranking under an existing ID.
	Update(id ranking.ID, r ranking.Ranking) error
	// Rebuilds reports the compactions run so far.
	Rebuilds() uint64
}

// Sharded is one index over the whole collection. Its mutations are the
// index's own, so it is safe for concurrent use if the index is.
type Sharded struct{ Index }

// New builds one index over the whole collection with build; the shard
// count is ignored. build must not modify the slice, which may contain nil
// entries — tombstoned slots of a snapshot — that it must map to retired ids
// (see invindex.NewMutable).
func New(rankings []ranking.Ranking, _ int, build func([]ranking.Ranking) (Index, error)) (*Sharded, error) {
	if len(rankings) == 0 {
		return nil, fmt.Errorf("shard: empty collection")
	}
	idx, err := build(rankings)
	if err != nil {
		return nil, err
	}
	return &Sharded{idx}, nil
}

// NumShards is 1.
func (s *Sharded) NumShards() int { return 1 }

// Shard returns the index and the global ID of its first ranking, 0.
func (s *Sharded) Shard(int) (Index, ranking.ID) { return s.Index, 0 }

// QueryTrace is empty: nothing reads a query's attribution here. It remains
// as SearchTracedContext's result type, which benchmark/ compiles against.
type QueryTrace struct{}

// SearchTracedContext answers a range query unless ctx is already done.
func (s *Sharded) SearchTracedContext(ctx context.Context, q ranking.Ranking, theta float64) ([]ranking.Result, QueryTrace, error) {
	if err := ctx.Err(); err != nil {
		return nil, QueryTrace{}, err
	}
	res, err := s.Search(q, theta)
	return res, QueryTrace{}, err
}

// NearestNeighborsContext answers an exact KNN query unless ctx is already
// done; n ≤ 0 answers nil.
func (s *Sharded) NearestNeighborsContext(ctx context.Context, q ranking.Ranking, n int) ([]ranking.Result, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.NearestNeighbors(q, n)
}

// SearchBatchContext answers many queries at the same threshold, the i-th
// result slice answering queries[i], member by member. ctx is checked before
// every member, and the first member error ends the batch.
func (s *Sharded) SearchBatchContext(ctx context.Context, queries []ranking.Ranking, theta float64) ([][]ranking.Result, error) {
	out := make([][]ranking.Result, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := s.Search(q, theta)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// SearchBatchSharedContext does nothing: it reports ok=false, so a caller
// takes its SearchBatchContext fallback.
//
// Deprecated: it answered uniform-threshold batches with the paper's
// Section 8 shared-candidate processor, which lost to per-query F&V+Drop at
// every measured threshold. It remains only until benchmark/ stops calling it.
func (s *Sharded) SearchBatchSharedContext(context.Context, []ranking.Ranking, float64) (res [][]ranking.Result, ok bool, err error) {
	return nil, false, nil
}

// ShardStats is the per-shard entry of the "shards" list that topkserve's
// /stats carried while it sharded. Nothing writes it any more; it remains as
// a decode target of benchmark/.
type ShardStats struct {
	Shard         int               `json:"shard"`
	Offset        ranking.ID        `json:"offset"`
	Len           int               `json:"len"`
	Tombstones    int               `json:"tombstones,omitempty"`
	Delta         int               `json:"delta,omitempty"`
	Rebuilds      uint64            `json:"rebuilds,omitempty"`
	DistanceCalls uint64            `json:"distanceCalls"`
	Latency       HistogramSnapshot `json:"latency"`
}

// HistogramSnapshot is the microsecond latency view that topkserve's /stats
// carried for its fan-out, merge and per-shard histograms while it sharded.
// Nothing writes it any more; it remains as a decode target of benchmark/.
// BucketBoundsMicros[i] is the inclusive upper bound (µs) of Buckets[i].
type HistogramSnapshot struct {
	Count              uint64   `json:"count"`
	SumMicros          float64  `json:"sumMicros"`
	MeanMicros         float64  `json:"meanMicros"`
	P50Micros          float64  `json:"p50Micros"`
	P95Micros          float64  `json:"p95Micros"`
	P99Micros          float64  `json:"p99Micros"`
	Buckets            []uint64 `json:"buckets,omitempty"`
	BucketBoundsMicros []uint64 `json:"bucketBoundsMicros,omitempty"`
}
