// Package shard partitions a ranking collection across S independent
// sub-indices and fans every query out to all of them in parallel. It is
// the scale-out layer of the library: one shard per core turns the exact
// range query of the EDBT'15 structures into an embarrassingly parallel
// scatter-gather whose merge is a plain concatenation.
//
// Sharding is by contiguous ID range: shard i indexes the rankings
// [offset_i, offset_i + len_i) of the collection, so a shard-local result
// ID maps back to the global ID by adding the shard's offset, and because
// every index in this library returns results sorted by ID, concatenating
// the per-shard answers in shard order yields the globally ID-sorted
// result set — byte-identical to querying one unsharded index over the
// whole collection.
//
// A sub-index serves through one total contract, Index: a traced range search
// and a traced exact KNN, each naming the backend that answered and the
// query's own distance calls — every kind of package topk provides both, so
// no query path asks a shard what it can do. What only some kinds have — the
// mutation half (Mutable), epoch rebuild counters — is resolved once, when New
// or NewEmpty has built the shards (see resolve): a capability holds for the
// Sharded exactly when every shard has it, and the request paths read the
// resolved slices.
//
// Every query path — a single search, a batch, a KNN query — is one scatter:
// one task per shard, so a request's parallelism is the shard count.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"topk/internal/ranking"
)

// Index is the serving contract of a sub-index; every index kind of package
// topk satisfies it.
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
	// DistanceCalls returns the cumulative number of Footrule evaluations.
	DistanceCalls() uint64
}

// Mutable is the mutation half of sub-indices that support dynamic
// collections (package topk's InvertedIndex and HybridIndex). When every
// sub-index implements it, the Sharded wrapper routes Insert, Delete and
// Update to the owning shard; otherwise they return ErrImmutable.
type Mutable interface {
	Index
	// Insert adds a ranking and returns its new shard-local ID.
	Insert(r ranking.Ranking) (ranking.ID, error)
	// Delete removes the ranking with the given shard-local ID.
	Delete(id ranking.ID) error
	// Update replaces the ranking under an existing shard-local ID.
	Update(id ranking.ID, r ranking.Ranking) error
	// Compact rebuilds over the surviving rankings, discarding tombstones.
	Compact() error
	// Slots returns the shard-local external-id slot view: slots[id] is the
	// live ranking under id, nil a retired id.
	Slots() []ranking.Ranking
	// Tombstones counts deleted rankings awaiting compaction.
	Tombstones() int
}

// epochIndex is a sub-index that serves from epochs (topk.HybridIndex):
// mutations wait in a delta overlay until a rebuild folds them in.
type epochIndex interface {
	DeltaLen() int
	Rebuilds() uint64
}

// Builder constructs one sub-index over a contiguous slice of the
// collection. The slice aliases the caller's collection; builders must not
// modify it. For mutable index kinds the slice may contain nil entries —
// tombstoned slots of a snapshot — which the builder must map to retired
// ids (see topk.NewInvertedIndexFromSlots).
type Builder func(rankings []ranking.Ranking) (Index, error)

// Sharded is a collection partitioned across independent sub-indices.
// All methods are safe for concurrent use (given sub-indices with
// concurrency-safe Search and mutations, which every topk index provides:
// shards serialize their own mutations internally, and the routing state
// below — offsets, slot sizes — is immutable after New because inserts only
// ever extend the open-ended id range of the last shard).
type Sharded struct {
	shards []Index
	// What the shards can do beyond Index, resolved once at construction: each
	// is the shards themselves under the wider interface when every one of
	// them has it, nil otherwise.
	mutable []Mutable
	epochs  []epochIndex

	offsets []ranking.ID // global ID of shard i's first ranking
	sizes   []int        // initial slot count of shard i (id-range width)
	hists   []*Histogram // per-shard query latency
	fanout  Histogram    // scatter phase: dispatch until the slowest shard answers
	merge   Histogram    // gather phase: combining per-shard answers
	k       int
	// snapMu is the cross-shard consistency point of Slots: mutations hold
	// it shared (they still run concurrently, serialized only within their
	// owning shard), Slots holds it exclusively so the per-shard slot views
	// it concatenates form one cut of the mutation history instead of a
	// state that never existed. Searches never touch it.
	snapMu sync.RWMutex
}

// New partitions the collection into numShards contiguous, near-equal
// chunks and builds one sub-index per chunk with build, in parallel.
// numShards ≤ 0 selects GOMAXPROCS; the shard count is capped at the
// collection size.
func New(rankings []ranking.Ranking, numShards int, build Builder) (*Sharded, error) {
	if len(rankings) == 0 {
		return nil, fmt.Errorf("shard: empty collection")
	}
	return assemble(rankings, numShards, build)
}

// NewEmpty builds a sharded index over an empty collection for dynamically
// created collections that grow through Insert: numShards sub-indices are
// built from empty slot views (numShards ≤ 0 selects GOMAXPROCS), every
// shard starts with a zero-width id range, and — as always — inserts extend
// the open-ended range of the last shard. The ranking size is undefined
// until the first insert: K reports 0 and then the size of whatever the
// collection holds. Only slot-capable (mutable) builders make sense here;
// a builder that rejects an empty slice fails NewEmpty the same way.
func NewEmpty(numShards int, build Builder) (*Sharded, error) {
	return assemble(nil, numShards, build)
}

// assemble is the one constructor behind New and NewEmpty: it cuts rankings
// (possibly none) into numShards chunks, builds the sub-indices in parallel
// and resolves what they can do.
func assemble(rankings []ranking.Ranking, numShards int, build Builder) (*Sharded, error) {
	n := len(rankings)
	if numShards <= 0 {
		numShards = runtime.GOMAXPROCS(0)
	}
	if n > 0 && numShards > n {
		numShards = n
	}
	s := &Sharded{
		shards:  make([]Index, numShards),
		offsets: make([]ranking.ID, numShards),
		sizes:   make([]int, numShards),
		hists:   make([]*Histogram, numShards),
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
	for i := 0; i < numShards; i++ {
		size := base
		if i < rem {
			size++
		}
		s.offsets[i] = ranking.ID(lo)
		s.sizes[i] = size
		s.hists[i] = &Histogram{}
		wg.Add(1)
		go func(i int, chunk []ranking.Ranking) {
			defer wg.Done()
			s.shards[i], errs[i] = build(chunk)
		}(i, rankings[lo:lo+size])
		lo += size
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	s.mutable = resolve[Mutable](s.shards)
	s.epochs = resolve[epochIndex](s.shards)
	return s, nil
}

// resolve is the one place a sub-index is asked what it can do beyond Index:
// it returns the shards as T when every one of them is a T, nil otherwise.
func resolve[T any](shards []Index) []T {
	out := make([]T, len(shards))
	for i, sh := range shards {
		t, ok := sh.(T)
		if !ok {
			return nil
		}
		out[i] = t
	}
	return out
}

// NumShards returns the number of sub-indices.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Len is the live ranking count summed over all shards, so
// it stays accurate under Insert/Delete/Update.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// K is the ranking size. A collection built empty (NewEmpty) has no ranking
// size until its first insert: K reports 0 while every shard is empty and
// the size of the first shard that holds a ranking after.
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

// ErrImmutable is returned by the mutation methods when a sub-index kind
// does not support them.
var ErrImmutable = errors.New("shard: index kind does not support mutation")

// Insert adds a ranking and returns its global ID. All inserts route to the
// last shard: its id range is the only open-ended one, so the contiguous
// ID-range invariant — and with it the concatenation merge of Search — is
// preserved no matter how the collection grows.
func (s *Sharded) Insert(r ranking.Ranking) (ranking.ID, error) {
	if s.mutable == nil {
		return 0, ErrImmutable
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	last := len(s.shards) - 1
	local, err := s.mutable[last].Insert(r)
	if err != nil {
		return 0, fmt.Errorf("shard %d: %w", last, err)
	}
	return s.offsets[last] + local, nil
}

// Delete removes the ranking with the given global ID, routing to the
// owning shard.
func (s *Sharded) Delete(id ranking.ID) error {
	if s.mutable == nil {
		return ErrImmutable
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	i, local, err := s.owner(id)
	if err != nil {
		return err
	}
	if err := s.mutable[i].Delete(local); err != nil {
		return fmt.Errorf("id %d (shard %d): %w", id, i, err)
	}
	return nil
}

// Update replaces the ranking stored under an existing global ID, routing
// to the owning shard. The ID stays stable.
func (s *Sharded) Update(id ranking.ID, r ranking.Ranking) error {
	if s.mutable == nil {
		return ErrImmutable
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	i, local, err := s.owner(id)
	if err != nil {
		return err
	}
	if err := s.mutable[i].Update(local, r); err != nil {
		return fmt.Errorf("id %d (shard %d): %w", id, i, err)
	}
	return nil
}

// Compact asks every sub-index to rebuild over its surviving rankings,
// discarding tombstones; read-only kinds have none. Global IDs are preserved.
func (s *Sharded) Compact() error {
	for i, m := range s.mutable {
		if err := m.Compact(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Slots concatenates the per-shard external-id slot views into the global
// one: slots[id] is the live ranking under global id, nil a retired id.
// Feeding the result to New with the same builder and shard count restores
// an equivalent sharded index with all ids preserved (non-last shards never
// grow, so per-shard slot ranges stay contiguous). Returns false for the
// read-only kinds, which expose no slot view.
//
// The view is a consistent cut: Slots quiesces mutations (exclusive
// snapMu) while it walks the shards, so a snapshot racing concurrent
// Insert/Delete/Update reflects exactly the mutations that completed
// before some single point in time — never a cross-shard mix where a later
// mutation is visible but an earlier one is not.
func (s *Sharded) Slots() ([]ranking.Ranking, bool) {
	if s.mutable == nil {
		return nil, false
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	var out []ranking.Ranking
	for _, m := range s.mutable {
		out = append(out, m.Slots()...)
	}
	return out, true
}

// owner maps a global ID to (shard, shard-local ID). IDs beyond the last
// shard's initial range still belong to the last shard (inserts extend it);
// whether the local id is actually assigned is decided by the sub-index.
func (s *Sharded) owner(id ranking.ID) (int, ranking.ID, error) {
	for i := 0; i < len(s.shards)-1; i++ {
		if int(id-s.offsets[i]) < s.sizes[i] {
			return i, id - s.offsets[i], nil
		}
	}
	last := len(s.shards) - 1
	if id < s.offsets[last] {
		// Unreachable with contiguous ranges; guard anyway.
		return 0, 0, fmt.Errorf("shard: id %d outside every shard range", id)
	}
	return last, id - s.offsets[last], nil
}

// DistanceCalls is the sum over all shards.
func (s *Sharded) DistanceCalls() uint64 {
	var t uint64
	for _, sh := range s.shards {
		t += sh.DistanceCalls()
	}
	return t
}

// Rebuilds sums the epoch-rebuild counters of sub-indices that serve from
// epochs (the hybrid engine's delta-overlay rebuilds); 0 for every other
// kind. Together with a mutation counter this forms a cheap collection
// generation: any acked mutation or installed rebuild changes it.
func (s *Sharded) Rebuilds() uint64 {
	var t uint64
	for _, e := range s.epochs {
		t += e.Rebuilds()
	}
	return t
}

// Shard returns the i-th sub-index and the global ID of its first ranking.
func (s *Sharded) Shard(i int) (Index, ranking.ID) { return s.shards[i], s.offsets[i] }

// Search is SearchContext without cancellation.
func (s *Sharded) Search(q ranking.Ranking, theta float64) ([]ranking.Result, error) {
	return s.SearchContext(context.Background(), q, theta)
}

// SearchContext fans the query out to every shard in parallel, remaps
// shard-local ids to global ones, and concatenates the per-shard answers in
// shard order — which, with contiguous id-range sharding and id-sorted
// per-shard results, is already the globally sorted result set. ctx is
// checked on entry and before each per-shard task, so a request whose client
// has gone away (or whose deadline has passed) stops scheduling shard work;
// see scatter for the cancellation grain. Returns ctx.Err() (possibly
// wrapped) when the search was cut short.
func (s *Sharded) SearchContext(ctx context.Context, q ranking.Ranking, theta float64) ([]ranking.Result, error) {
	res, _, err := s.SearchTracedContext(ctx, q, theta)
	return res, err
}

// SearchTracedContext is SearchContext with a per-query trace: phase
// timings, the backends that answered and their distance-call cost.
func (s *Sharded) SearchTracedContext(ctx context.Context, q ranking.Ranking, theta float64) ([]ranking.Result, QueryTrace, error) {
	var out []ranking.Result
	tr, err := s.scatter(ctx,
		func(i int) shardAnswer {
			res, backend, calls, err := s.shards[i].SearchTraced(q, theta)
			return shardAnswer{res: res, backend: backend, calls: calls, err: err}
		},
		func(parts []shardAnswer) {
			out = concat(parts, func(p *shardAnswer) []ranking.Result { return p.res })
		})
	return out, tr, err
}

// SearchBatchContext answers many queries at the same threshold; the i-th
// result slice answers queries[i]. See searchBatch for how the batch runs and
// how it is cut short.
func (s *Sharded) SearchBatchContext(ctx context.Context, queries []ranking.Ranking, theta float64) ([][]ranking.Result, error) {
	res, _, err := s.searchBatch(ctx, queries, func(int) float64 { return theta })
	return res, err
}

// SearchBatchThetasContext answers many queries, each at its own threshold
// (thetas[i] is the threshold of queries[i]), with the batch's trace: phase
// timings, the backends that answered and the batch's distance-call cost.
func (s *Sharded) SearchBatchThetasContext(ctx context.Context, queries []ranking.Ranking, thetas []float64) ([][]ranking.Result, QueryTrace, error) {
	if len(thetas) != len(queries) {
		return nil, QueryTrace{}, fmt.Errorf("shard: %d thetas for %d queries", len(thetas), len(queries))
	}
	return s.searchBatch(ctx, queries, func(i int) float64 { return thetas[i] })
}

// searchBatch answers a batch as one scatter: each shard task answers the
// members in order on its own sub-index, and each member's per-shard answers
// concatenate in shard order exactly like SearchContext's. A batch therefore
// runs on as many goroutines as a single query — one per shard — and is one
// observation of each shard's latency histogram. The batch's context is
// checked before every member and the first member error cancels it, so a
// dead client or a decided outcome stops every shard at its next member: at
// most one member per shard is in flight when the batch is cut short.
func (s *Sharded) searchBatch(ctx context.Context, queries []ranking.Ranking, thetaFor func(int) float64) ([][]ranking.Result, QueryTrace, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var out [][]ranking.Result
	tr, err := s.scatter(ctx,
		func(i int) shardAnswer {
			a := shardAnswer{batch: make([][]ranking.Result, len(queries))}
			for qi, q := range queries {
				if err := ctx.Err(); err != nil {
					return shardAnswer{err: err}
				}
				res, backend, calls, err := s.shards[i].SearchTraced(q, thetaFor(qi))
				if err != nil {
					cancel()
					return shardAnswer{err: fmt.Errorf("query %d: %w", qi, err)}
				}
				a.batch[qi], a.backend, a.calls = res, backend, a.calls+calls
			}
			return a
		},
		func(parts []shardAnswer) {
			out = make([][]ranking.Result, len(queries))
			for qi := range out {
				out[qi] = concat(parts, func(p *shardAnswer) []ranking.Result { return p.batch[qi] })
			}
		})
	return out, tr, err
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

// ShardStats is a point-in-time view of one shard. Len is the live ranking
// count; Tombstones counts deleted rankings awaiting compaction (always 0
// for immutable kinds). Delta and Rebuilds describe the hybrid engine's
// mutation overlay: rankings waiting in the delta region for the next epoch
// rebuild, and how many rebuilds the shard has installed.
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

// Timings snapshots the cross-shard phase histograms of every scatter —
// search, batch and nearest neighbors alike: fanout covers the
// scatter phase (dispatch until the slowest shard answers), merge the gather
// phase (combining the per-shard answers).
func (s *Sharded) Timings() (fanout, merge HistogramSnapshot) {
	return s.fanout.Snapshot(), s.merge.Snapshot()
}

// Stats snapshots every shard's live size, tombstone backlog, delta-overlay
// and rebuild counters, distance-call counter and query latency histogram.
func (s *Sharded) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStats{
			Shard:         i,
			Offset:        s.offsets[i],
			Len:           sh.Len(),
			DistanceCalls: sh.DistanceCalls(),
			Latency:       s.hists[i].Snapshot(),
		}
		if s.mutable != nil {
			out[i].Tombstones = s.mutable[i].Tombstones()
		}
		if s.epochs != nil {
			out[i].Delta, out[i].Rebuilds = s.epochs[i].DeltaLen(), s.epochs[i].Rebuilds()
		}
	}
	return out
}
