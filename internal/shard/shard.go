// Package shard partitions a ranking collection across S independent
// sub-indices and answers every query as a scatter-gather over them.
//
// Nothing in the serving stack uses it any more: cmd/topkserve holds one
// invindex.Mutable per collection, whose single accumulate and whole-index
// Lemma 2 and KNN admission bounds answer faster than a scatter. The package
// remains only because the end-to-end harness in benchmark/ compiles against
// this API; it goes once the harness stops calling it.
//
// Sharding is by contiguous ID range: shard i indexes the rankings
// [offset_i, offset_i + len_i) of the collection, so a shard-local result
// ID maps back to the global ID by adding the shard's offset, and because
// every index in this library returns results sorted by ID, concatenating
// the per-shard answers in shard order yields the globally ID-sorted
// result set — byte-identical to querying one unsharded index over the
// whole collection.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"topk/internal/ranking"
)

// Index is the contract of a sub-index — package topk's wrappers of
// invindex.Mutable: a traced query half plus the mutations Sharded routes to
// the owning shard.
type Index interface {
	// SearchTraced returns all indexed rankings within normalized Footrule
	// distance theta of q, sorted by ID, with exact distances, plus the name
	// of the backend that answered and the number of Footrule evaluations
	// this query cost.
	SearchTraced(q ranking.Ranking, theta float64) ([]ranking.Result, string, uint64, error)
	// NearestNeighborsTraced returns the n indexed rankings closest to q,
	// ordered by distance (ties broken by id) — the answer is exact — with
	// the same attribution.
	NearestNeighborsTraced(q ranking.Ranking, n int) ([]ranking.Result, string, uint64, error)
	// Len returns the number of indexed rankings.
	Len() int
	// K returns the ranking size.
	K() int
	// Insert adds a ranking and returns its new shard-local ID.
	Insert(r ranking.Ranking) (ranking.ID, error)
	// Delete removes the ranking with the given shard-local ID.
	Delete(id ranking.ID) error
	// Update replaces the ranking under an existing shard-local ID.
	Update(id ranking.ID, r ranking.Ranking) error
	// Rebuilds reports the compactions run so far.
	Rebuilds() uint64
}

// Builder constructs one sub-index over a contiguous slice of the
// collection. The slice aliases the caller's collection; builders must not
// modify it. The slice may contain nil entries — tombstoned slots of a
// snapshot — which the builder must map to retired ids (see
// invindex.NewMutable).
type Builder func(rankings []ranking.Ranking) (Index, error)

// Sharded is a collection partitioned across independent sub-indices. All
// methods are safe for concurrent use given sub-indices that are; the
// routing state — offsets and slot sizes — is immutable after New because
// inserts only ever extend the open-ended id range of the last shard.
type Sharded struct {
	shards  []Index
	offsets []ranking.ID // global ID of shard i's first ranking
	sizes   []int        // initial slot count of shard i (id-range width)
	k       int
}

// New partitions the collection into numShards contiguous, near-equal
// chunks and builds one sub-index per chunk with build, in parallel.
// numShards ≤ 0 selects GOMAXPROCS; the shard count is capped at the
// collection size.
func New(rankings []ranking.Ranking, numShards int, build Builder) (*Sharded, error) {
	n := len(rankings)
	if n == 0 {
		return nil, fmt.Errorf("shard: empty collection")
	}
	if numShards <= 0 {
		numShards = runtime.GOMAXPROCS(0)
	}
	numShards = min(numShards, n)
	s := &Sharded{
		shards:  make([]Index, numShards),
		offsets: make([]ranking.ID, numShards),
		sizes:   make([]int, numShards),
	}
	for _, r := range rankings {
		if r != nil {
			s.k = r.K()
			break
		}
	}
	base, rem := n/numShards, n%numShards
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	lo := 0
	for i := range numShards {
		size := base
		if i < rem {
			size++
		}
		s.offsets[i], s.sizes[i] = ranking.ID(lo), size
		wg.Add(1)
		go func(chunk []ranking.Ranking) {
			defer wg.Done()
			s.shards[i], errs[i] = build(chunk)
		}(rankings[lo : lo+size])
		lo += size
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return s, nil
}

// NumShards returns the number of sub-indices.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns the i-th sub-index and the global ID of its first ranking.
func (s *Sharded) Shard(i int) (Index, ranking.ID) { return s.shards[i], s.offsets[i] }

// Len is the live ranking count summed over all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// K is the ranking size.
func (s *Sharded) K() int {
	if s.k != 0 {
		return s.k
	}
	for _, sh := range s.shards {
		if k := sh.K(); k != 0 {
			return k
		}
	}
	return 0
}

// Insert adds a ranking and returns its global ID. All inserts route to the
// last shard: its id range is the only open-ended one, so the contiguous
// ID-range invariant — and with it the concatenation merge of a search — is
// preserved no matter how the collection grows.
func (s *Sharded) Insert(r ranking.Ranking) (ranking.ID, error) {
	last := len(s.shards) - 1
	local, err := s.shards[last].Insert(r)
	if err != nil {
		return 0, fmt.Errorf("shard %d: %w", last, err)
	}
	return s.offsets[last] + local, nil
}

// Delete removes the ranking with the given global ID, routing to the
// owning shard.
func (s *Sharded) Delete(id ranking.ID) error {
	i, local := s.owner(id)
	if err := s.shards[i].Delete(local); err != nil {
		return fmt.Errorf("id %d (shard %d): %w", id, i, err)
	}
	return nil
}

// Update replaces the ranking stored under an existing global ID, routing
// to the owning shard. The ID stays stable.
func (s *Sharded) Update(id ranking.ID, r ranking.Ranking) error {
	i, local := s.owner(id)
	if err := s.shards[i].Update(local, r); err != nil {
		return fmt.Errorf("id %d (shard %d): %w", id, i, err)
	}
	return nil
}

// owner maps a global ID to (shard, shard-local ID). IDs beyond the last
// shard's initial range still belong to the last shard (inserts extend it);
// whether the local id is actually assigned is decided by the sub-index.
func (s *Sharded) owner(id ranking.ID) (int, ranking.ID) {
	for i := 0; i < len(s.shards)-1; i++ {
		if int(id-s.offsets[i]) < s.sizes[i] {
			return i, id - s.offsets[i]
		}
	}
	last := len(s.shards) - 1
	return last, id - s.offsets[last]
}

// Rebuilds sums the compactions of the sub-indices.
func (s *Sharded) Rebuilds() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.Rebuilds()
	}
	return n
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
