// The engine layer of the paper baselines: every read-only structure in this
// package is adapted onto the backend interface — one raw-threshold range
// search drawing per-query scratch from the structure's pool — and the three
// read-only kinds (CoarseIndex, BlockedIndex, MetricTree) answer through one
// query half (queryHalf): Search, NearestNeighbors, their traced forms and
// DistanceCalls are written once over whatever backend the kind installed.
// The mutable inverted index is not one of them: InvertedIndex and
// HybridIndex wrap internal/invindex.Mutable, which cmd/topkserve serves
// directly (see mutate.go and hybrid.go).
//
// The query contract — the index's ranking size, no repeated item
// (checkQuery) — is enforced below the query half, once per path: a range
// search by the structure's own searcher (the metric trees have none, so
// treeBackend checks), a KNN query by nearestBackend before either route.
//
// Candidate validation in every backend bottoms out in internal/kernel: the
// constructors reached from here flatten the collection into a kernel.Store
// (one contiguous k-strided arena) and each backend's searcher validates
// candidates through a query-compiled Footrule kernel, accounting one
// distance call per evaluated candidate via ev.Add. The inverted-index
// family (blocked, coarse's medoid filter, adaptsearch) is Footrule-only by
// construction — posting lists, overlap bounds and list dropping all rest on
// Footrule's structure — so the evaluator they receive is only the DFC
// counter; its distance function serves the metric trees.
//
// Exact KNN has two routes through nearestBackend: the BK-tree traverses
// best-first, and everything else (coarse, blocked, M-/VP-tree, a HybridIndex
// forced onto adaptsearch) takes the generic reduction knn.Expanding: range
// searches at a doubling radius, whose distance evaluations count as usual.
package topk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"topk/internal/adaptsearch"
	"topk/internal/bktree"
	"topk/internal/blocked"
	"topk/internal/coarse"
	"topk/internal/knn"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// backend is one physical index structure behind a facade: an exact
// raw-threshold range search drawing per-query scratch from the structure's
// pool, with Footrule evaluations counted on ev.
type backend interface {
	// Name identifies the backend in traces, plan stats and the hybrid's
	// Force.
	Name() string
	// SearchRaw answers the exact range query (q, rawTheta), sorted by id.
	// ev must count every distance evaluation the query performs; a nil ev
	// is allowed.
	SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error)
	// Len returns the number of indexed rankings.
	Len() int
	// K returns the ranking size.
	K() int
}

// Names of the backend adapters below and of the mutable index. The hybrid
// engine answers from backendInverted and backendAdaptSearch
// (HybridBackends); the others name standalone index kinds.
const (
	backendInverted    = "inverted"
	backendBlocked     = "blocked"
	backendCoarse      = "coarse"
	backendBKTree      = "bktree"
	backendAdaptSearch = "adaptsearch"
)

// queryHalf is the query half of the read-only kinds, embedded by
// CoarseIndex, BlockedIndex and MetricTree and by a HybridIndex's forced
// adaptsearch sidecar. It holds the kind's one physical
// backend and its DFC counter and defines the public query methods once over
// them: normalized-threshold conversion, pooled raw search or exact KNN, and
// the traced signatures that attribute every answer to the backend's name and
// the query's own distance calls. The structures are immutable, so no query
// takes a lock.
type queryHalf struct {
	backend backend
	calls   atomic.Uint64
}

// SearchTraced is Search plus per-query attribution: the name of the backend
// that answered and the Footrule evaluations this query cost.
func (h *queryHalf) SearchTraced(q Ranking, theta float64) ([]Result, string, uint64, error) {
	ev := metric.New(nil)
	res, err := h.backend.SearchRaw(q, ranking.RawThreshold(theta, h.backend.K()), ev)
	h.calls.Add(ev.Calls())
	if err != nil {
		return nil, "", 0, err
	}
	return res, h.backend.Name(), ev.Calls(), nil
}

// Search implements Index.
func (h *queryHalf) Search(q Ranking, theta float64) ([]Result, error) {
	res, _, _, err := h.SearchTraced(q, theta)
	return res, err
}

// NearestNeighborsTraced is NearestNeighbors plus per-query attribution: the
// backend that answered and the Footrule evaluations the query cost.
func (h *queryHalf) NearestNeighborsTraced(q Ranking, n int) ([]Result, string, uint64, error) {
	ev := metric.New(nil)
	res, err := nearestBackend(h.backend, q, n, ev)
	h.calls.Add(ev.Calls())
	if err != nil {
		return nil, "", 0, err
	}
	return res, h.backend.Name(), ev.Calls(), nil
}

// NearestNeighbors implements NearestNeighborSearcher: the BK-tree's native
// best-first traversal, and the expanding-radius reduction over the
// backend's range search otherwise (see nearestBackend).
func (h *queryHalf) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	res, _, _, err := h.NearestNeighborsTraced(q, n)
	return res, err
}

// DistanceCalls implements Index.
func (h *queryHalf) DistanceCalls() uint64 { return h.calls.Load() }

// checkQuery is the query contract every backend enforces — the index's
// ranking size, no repeated item — for callers that cannot leave it to a
// structure. k is 0 for an index over zero rankings: any size is then
// answered, with nothing.
func checkQuery(q Ranking, k int) error {
	if k != 0 && q.K() != k {
		return fmt.Errorf("topk: query size %d, index size %d: %w",
			q.K(), k, ranking.ErrSizeMismatch)
	}
	return q.Validate()
}

// nearestBackend runs the NearestNeighbors contract over a physical backend:
// validation, then the BK-tree's best-first traversal or — for every other
// backend — the expanding-radius reduction over its range search; ev counts
// the distance calls.
func nearestBackend(b backend, q Ranking, n int, ev *metric.Evaluator) ([]Result, error) {
	if err := checkQuery(q, b.K()); err != nil {
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

func (b coarseBackend) Name() string { return backendCoarse }
func (b coarseBackend) Len() int     { return b.idx.Len() }
func (b coarseBackend) K() int       { return b.idx.K() }

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

func (b blockedBackend) Name() string { return backendBlocked }
func (b blockedBackend) Len() int     { return b.idx.Len() }
func (b blockedBackend) K() int       { return b.idx.K() }

func (b blockedBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	return s.Query(q, rawTheta, ev, b.mode)
}

// treeBackend adapts a metric tree. A BK-tree also answers KNN natively, by
// its best-first traversal (nearestBackend).
type treeBackend struct {
	name string
	tree interface {
		RangeSearch(q Ranking, radius int, ev *metric.Evaluator) []Result
		Len() int
		K() int
	}
}

func (b treeBackend) Name() string { return b.name }
func (b treeBackend) Len() int     { return b.tree.Len() }
func (b treeBackend) K() int       { return b.tree.K() }

func (b treeBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	if err := checkQuery(q, b.tree.K()); err != nil {
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

func (b adaptBackend) Name() string { return backendAdaptSearch }
func (b adaptBackend) Len() int     { return b.idx.Len() }
func (b adaptBackend) K() int       { return b.k }

func (b adaptBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	return s.Query(q, rawTheta, ev)
}
