// The engine layer of the paper baselines: every read-only structure in this
// package is adapted onto the backend interface — one raw-threshold range
// search drawing per-query scratch from the structure's pool — and the four
// read-only kinds (CoarseIndex, BlockedIndex, MetricTree,
// StaticInvertedIndex) answer through one query half (queryHalf): Search,
// NearestNeighbors and DistanceCalls are written once over whatever backend
// the kind installed. No query reports a backend name: each kind has one.
// The mutable inverted index is not one of them: InvertedIndex and
// HybridIndex wrap internal/invindex.Mutable, which cmd/topkserve serves
// directly (see mutate.go and hybrid.go).
//
// The ranking contract — the index's ranking size, no repeated item — is
// ranking.Check. Every constructor applies it to each member of its
// collection (validateCollection, then the internal constructors), and a
// query meets it below the query half, once per path: a range search in the
// structure's own searcher (the metric trees have none, so treeBackend
// checks), a KNN query in nearestBackend before either route.
//
// Candidate validation in every backend bottoms out in internal/kernel's
// query-compiled Footrule kernel, one distance call per evaluated candidate
// (ev.Add). Only the inverted indices own their rankings, copied into a
// kernel.Store: StaticInvertedIndex, the mutable kinds and coarse's medoid
// index. BlockedIndex, coarse's partitions, the metric trees and the
// adaptsearch sidecar keep the caller's slices (ROADMAP item 13). The
// inverted-index family is Footrule-only by construction — posting lists,
// overlap bounds and list dropping rest on Footrule's structure — so the
// evaluator it receives is only the DFC counter; its distance function
// serves the metric trees.
//
// Exact KNN has two routes through nearestBackend: the BK-tree traverses
// best-first, and every other backend (a HybridIndex's forced adaptsearch
// too) takes the generic reduction knn.Expanding: range searches at a
// doubling radius, whose distance evaluations count as usual.
package topk

import (
	"sync"
	"sync/atomic"

	"topk/internal/adaptsearch"
	"topk/internal/bktree"
	"topk/internal/blocked"
	"topk/internal/coarse"
	"topk/internal/invindex"
	"topk/internal/knn"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// backend is one physical index structure behind a facade: an exact
// raw-threshold range search drawing per-query scratch from the structure's
// pool, with Footrule evaluations counted on ev.
type backend interface {
	// SearchRaw answers the exact range query (q, rawTheta), sorted by id.
	// ev must count every distance evaluation the query performs; a nil ev
	// counts nothing.
	SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error)
	// Len returns the number of indexed rankings.
	Len() int
	// K returns the ranking size.
	K() int
}

// queryHalf is the query half of the read-only kinds, embedded by
// CoarseIndex, BlockedIndex, MetricTree and StaticInvertedIndex. It holds
// the kind's one physical backend and its DFC counter and defines the public
// query methods once over them: normalized-threshold conversion, then pooled
// raw search or exact KNN, each counted on a per-query evaluator, plus Len
// and K. The structures are immutable, so no query takes a lock.
type queryHalf struct {
	backend backend
	calls   atomic.Uint64
}

// Search implements Index.
func (h *queryHalf) Search(q Ranking, theta float64) ([]Result, error) {
	ev := metric.New(nil)
	res, err := h.backend.SearchRaw(q, ranking.RawThreshold(theta, h.backend.K()), ev)
	h.calls.Add(ev.Calls())
	return res, err
}

// NearestNeighbors implements NearestNeighborSearcher: the BK-tree's native
// best-first traversal, and the expanding-radius reduction over the
// backend's range search otherwise (see nearestBackend).
func (h *queryHalf) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	ev := metric.New(nil)
	res, err := nearestBackend(h.backend, q, n, ev)
	h.calls.Add(ev.Calls())
	return res, err
}

// DistanceCalls implements Index.
func (h *queryHalf) DistanceCalls() uint64 { return h.calls.Load() }

// Len implements Index.
func (h *queryHalf) Len() int { return h.backend.Len() }

// K implements Index.
func (h *queryHalf) K() int { return h.backend.K() }

// nearestBackend runs the NearestNeighbors contract over a physical backend:
// validation, then the BK-tree's best-first traversal or — for every other
// backend — the expanding-radius reduction over its range search; ev counts
// the distance calls.
func nearestBackend(b backend, q Ranking, n int, ev *metric.Evaluator) ([]Result, error) {
	if err := ranking.Check(q, b.K()); err != nil {
		return nil, err
	}
	if t, ok := b.(treeBackend); ok {
		if bk, ok := t.tree.(*bktree.Tree); ok {
			return knn.BestFirst(bk, q, n, ev), nil
		}
	}
	return knn.Expanding(rangeAdapter{
		query: func(q Ranking, raw int) ([]Result, error) { return b.SearchRaw(q, raw, ev) },
		live:  b.Len(), k: b.K(),
	}, q, n)
}

// ---------------------------------------------------------------------------
// Backend adapters
// ---------------------------------------------------------------------------

// pool hands out a structure's searchers to concurrent queries. A searcher's
// scratch state (O(n) bookkeeping arrays, the kernel's one-byte rank table,
// candidate buffers) is reused across queries, and each query resets only
// the entries the previous one wrote, so any number of goroutines share one
// index without serializing behind a mutex or paying a fresh allocation per
// query.
type pool[S any] struct{ p sync.Pool }

func newPool[I, S any](idx I, newSearcher func(I) *S) *pool[S] {
	return &pool[S]{sync.Pool{New: func() any { return newSearcher(idx) }}}
}

func (p *pool[S]) Get() *S  { return p.p.Get().(*S) }
func (p *pool[S]) Put(s *S) { p.p.Put(s) }

// coarseBackend adapts the paper's coarse index.
type coarseBackend struct {
	idx  *coarse.Index
	pool *pool[coarse.Searcher]
	mode coarse.Mode
}

func (b coarseBackend) Len() int { return b.idx.Len() }
func (b coarseBackend) K() int   { return b.idx.K() }

func (b coarseBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	return s.Query(q, rawTheta, ev, b.mode)
}

// blockedBackend adapts the blocked inverted index.
type blockedBackend struct {
	idx  *blocked.Index
	pool *pool[blocked.Searcher]
	mode blocked.Mode
}

func (b blockedBackend) Len() int { return b.idx.Len() }
func (b blockedBackend) K() int   { return b.idx.K() }

func (b blockedBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	return s.Query(q, rawTheta, ev, b.mode)
}

// invBackend adapts the static inverted index under one of the paper's list
// algorithms, search: a Searcher method.
type invBackend struct {
	idx    *invindex.Index
	pool   *pool[invindex.Searcher]
	search func(*invindex.Searcher, Ranking, int, *metric.Evaluator) ([]Result, error)
}

func (b invBackend) Len() int { return b.idx.Len() }
func (b invBackend) K() int   { return b.idx.K() }

func (b invBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	return b.search(s, q, rawTheta, ev)
}

// treeBackend adapts a metric tree. A BK-tree also answers KNN natively, by
// its best-first traversal (nearestBackend).
type treeBackend struct {
	tree interface {
		RangeSearch(q Ranking, radius int, ev *metric.Evaluator) []Result
		Len() int
		K() int
	}
}

func (b treeBackend) Len() int { return b.tree.Len() }
func (b treeBackend) K() int   { return b.tree.K() }

func (b treeBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	if err := ranking.Check(q, b.tree.K()); err != nil {
		return nil, err
	}
	out := b.tree.RangeSearch(q, rawTheta, ev)
	ranking.SortResults(out)
	return out, nil
}

// adaptBackend adapts the AdaptSearch prefix filter a HybridIndex forced onto
// adaptsearch answers from (hybrid.go). k is the hybrid's ranking size, which
// an empty sidecar keeps.
type adaptBackend struct {
	idx  *adaptsearch.Index
	pool *pool[adaptsearch.Searcher]
	k    int
}

func (b adaptBackend) Len() int { return b.idx.Len() }
func (b adaptBackend) K() int   { return b.k }

func (b adaptBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	return s.Query(q, rawTheta, ev)
}
