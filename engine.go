// The unified engine layer: every physical index structure in this package
// is adapted onto the backend interface — one raw-threshold range search
// drawing per-query scratch from the structure's pool — and the four
// standalone kinds answer through one query half (queryHalf), the counterpart
// of the mutation half in mutate.go: Search, NearestNeighbors, their traced
// forms and DistanceCalls are written once over whatever backend the kind
// installed, instead of per-kind copies of the same lock/evaluator/remap
// plumbing. HybridIndex is an InvertedIndex whose route hook swaps in its
// forced adaptsearch sidecar (adaptBackend) and whose traced methods count
// plans.
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
// family (inverted, blocked, coarse's medoid filter, adaptsearch) is
// Footrule-only by construction — posting lists, overlap bounds
// and list dropping all rest on Footrule's structure — so the evaluator they
// receive is only the DFC counter; its distance function serves the metric
// trees.
//
// Exact KNN has two routes through nearestBackend. A backend with a native
// algorithm (the exactKNN hook) answers directly: the inverted index walks
// the query's k posting lists once — each found by array index in its item
// dictionary, its ids and ranks read from parallel arenas — accumulating
// every overlapping ranking's exact distance from the posting ranks (F =
// k(k+1) − Σ 2·(k − max(q(i), τ(i))) over shared items) and selecting the n
// best, ties by external id; the BK-tree traverses best-first.
// InvertedIndex, and HybridIndex unless it is forced onto adaptsearch, always
// take the posting-list route. It calls no distance function, so — the
// paper's Figure 10 convention, as for ListMerge — it adds nothing to
// DistanceCalls; its scratch is the []uint16 gain accumulator every
// inverted-index query shares, 2 bytes per indexed ranking in each pooled
// searcher, allocated on the searcher's first query. Everything else (coarse, blocked, M-/VP-tree, a
// hybrid forced onto adaptsearch) takes the generic reduction knn.Expanding:
// range searches at a doubling radius, whose distance evaluations count as
// usual.
package topk

import (
	"fmt"
	"slices"
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
	// Name identifies the backend in traces, plan stats and the hybrid's
	// Force.
	Name() string
	// SearchRaw answers the exact range query (q, rawTheta) over the
	// backend's internal id space, sorted by id. ev must count every
	// distance evaluation the query performs; a nil ev is allowed.
	SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error)
	// Len returns the number of indexed rankings.
	Len() int
	// K returns the ranking size.
	K() int
}

// Names of the backend adapters below. The hybrid engine builds
// backendInverted and backendAdaptSearch (HybridBackends); the others name
// standalone index kinds.
const (
	backendInverted    = "inverted"
	backendBlocked     = "blocked"
	backendCoarse      = "coarse"
	backendBKTree      = "bktree"
	backendAdaptSearch = "adaptsearch"
)

// queryHalf is the query half of the four standalone kinds — the counterpart
// of InvertedIndex's mutation half (mutable, mutate.go), embedded by
// InvertedIndex and the read-only CoarseIndex, BlockedIndex and MetricTree.
// It holds the kind's one physical backend and its DFC counter and defines
// the public query methods once over them: normalized-threshold conversion,
// pooled raw search or exact KNN, external-id remapping, and — the traced
// signatures internal/shard serves from — the attribution of every answer to
// the backend's name and the query's own distance calls.
type queryHalf struct {
	// backend adapts the kind's physical structure. The read-only kinds set it
	// once; InvertedIndex's rebuild replaces it under the write lock, so its
	// queries read it under the read lock.
	backend backend
	// mut is InvertedIndex's mutation half: the lock its queries share and the
	// id map their answers pass through. It is nil for the read-only kinds,
	// whose internal ids are the public ones and whose queries take no lock.
	mut *mutable
	// route, when set, picks each query's backend under the read lock in place
	// of backend (HybridIndex's Force).
	route func() (backend, error)
	calls atomic.Uint64
}

// pick returns the backend that answers the next query.
func (h *queryHalf) pick() (backend, error) {
	if h.route != nil {
		return h.route()
	}
	return h.backend, nil
}

// SearchTraced is Search plus per-query attribution: the name of the backend
// that answered and the Footrule evaluations this query cost.
func (h *queryHalf) SearchTraced(q Ranking, theta float64) ([]Result, string, uint64, error) {
	core := h.mut
	if core != nil {
		core.mu.RLock()
		defer core.mu.RUnlock()
	}
	b, err := h.pick()
	if err != nil {
		return nil, "", 0, err
	}
	k := b.K()
	if core != nil {
		k = core.k
	}
	ev := metric.New(nil)
	res, err := b.SearchRaw(q, ranking.RawThreshold(theta, k), ev)
	h.calls.Add(ev.Calls())
	if err != nil {
		return nil, "", 0, err
	}
	if core != nil {
		core.ids.remapSearch(res)
	}
	return res, b.Name(), ev.Calls(), nil
}

// Search implements Index.
func (h *queryHalf) Search(q Ranking, theta float64) ([]Result, error) {
	res, _, _, err := h.SearchTraced(q, theta)
	return res, err
}

// NearestNeighborsTraced is NearestNeighbors plus per-query attribution: the
// backend that answered and the Footrule evaluations the query cost (0 on the
// inverted index's native path).
func (h *queryHalf) NearestNeighborsTraced(q Ranking, n int) ([]Result, string, uint64, error) {
	core := h.mut
	if core != nil {
		core.mu.RLock()
		defer core.mu.RUnlock()
	}
	b, err := h.pick()
	if err != nil {
		return nil, "", 0, err
	}
	ev := metric.New(nil)
	res, err := nearestBackend(b, core, q, n, ev)
	h.calls.Add(ev.Calls())
	if err != nil {
		return nil, "", 0, err
	}
	return res, b.Name(), ev.Calls(), nil
}

// NearestNeighbors implements NearestNeighborSearcher: the backend's native
// exact KNN where it has one — the inverted index's single pass over the
// query's posting lists, whatever range algorithm the index was configured
// with, and the BK-tree's best-first traversal — and the expanding-radius
// reduction over its range search otherwise (see nearestBackend).
func (h *queryHalf) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	res, _, _, err := h.NearestNeighborsTraced(q, n)
	return res, err
}

// DistanceCalls implements Index.
func (h *queryHalf) DistanceCalls() uint64 { return h.calls.Load() }

// exactKNN is implemented by backends with a native exact KNN algorithm
// that beats the generic expanding-radius reduction: the inverted index's
// single accumulate-and-select pass over the query's posting lists and the
// standalone BK-tree's best-first traversal.
type exactKNN interface {
	// nearestRaw returns the n nearest rankings over the backend's internal
	// id space. ext is nil when ascending internal ids are ascending public
	// ids; otherwise it is the internal→external map and distance ties must
	// be ordered by ext[id]. ok is false when the backend has no native
	// answer for this call (a traversal that cannot order by ext, or state
	// it does not cover); the caller then runs the reduction.
	nearestRaw(q Ranking, n int, ext []ID, ev *metric.Evaluator) (res []Result, ok bool, err error)
}

// checkQuery is the query contract every backend enforces — the index's
// ranking size, no repeated item — for callers that cannot leave it to a
// structure. k is 0 for an index built over zero live rankings (an
// all-tombstone shard) until its first insert: any size is then answered,
// with nothing.
func checkQuery(q Ranking, k int) error {
	if k != 0 && q.K() != k {
		return fmt.Errorf("topk: query size %d, index size %d: %w",
			q.K(), k, ranking.ErrSizeMismatch)
	}
	return q.Validate()
}

// nearestBackend runs the NearestNeighbors contract over a physical backend:
// validation, the backend's native exact KNN or — for backends without one —
// the expanding-radius reduction over its range search, external-id
// remapping; ev counts the distance calls. core is the mutation half of an
// InvertedIndex — its id map, and the size and tombstone predicate of the
// internal id space the reduction's dmax backfill walks — and nil for kinds
// whose internal ids are the public ones. The caller holds
// whatever lock its kind requires.
func nearestBackend(b backend, core *mutable, q Ranking, n int, ev *metric.Evaluator) ([]Result, error) {
	k, live, space := b.K(), b.Len(), b.Len()
	var (
		ids  *idmap
		dead func(ID) bool
	)
	if core != nil {
		k, live, space = core.k, core.inv.Live(), core.inv.Len()
		ids, dead = &core.ids, core.inv.Deleted
	}
	if err := checkQuery(q, k); err != nil {
		return nil, err
	}
	// Non-monotonic id mapping (an Update reassigned an external id to a
	// later internal slot): KNN truncates distance ties by id, so the
	// selection must order by external id — remapping after the cut would
	// keep the wrong tied members.
	var ext []ID
	if ids != nil && !ids.inOrder {
		ext = ids.int2ext
	}
	if e, ok := b.(exactKNN); ok {
		if res, ok, err := e.nearestRaw(q, n, ext, ev); ok {
			if err == nil && ids != nil {
				ids.remapNN(res)
			}
			return res, err
		}
	}
	ra := rangeAdapter{
		query: func(q Ranking, raw int) ([]Result, error) { return b.SearchRaw(q, raw, ev) },
		live:  live, space: space, dead: dead, k: k,
	}
	if ext != nil {
		// Run the reduction in the external id space: remap every range
		// answer before the selection sees it.
		ra.query = func(q Ranking, raw int) ([]Result, error) {
			r, err := b.SearchRaw(q, raw, ev)
			for i := range r {
				r[i].ID = ext[r[i].ID]
			}
			return r, err
		}
		ra.space = len(ids.ext2int)
		ra.dead = func(id ID) bool { return ids.ext2int[id] < 0 }
	}
	res, err := knn.Expanding(ra, q, n)
	if err == nil && ext == nil && ids != nil {
		ids.remapNN(res)
	}
	return res, err
}

// ---------------------------------------------------------------------------
// Backend adapters
// ---------------------------------------------------------------------------

// pool hands out a structure's searchers to concurrent queries. A searcher's
// scratch state (stamp and bookkeeping arrays of O(n), candidate buffers) is
// reused across queries, so any number of goroutines share one index without
// serializing behind a mutex or paying a fresh allocation per query; searchers
// grow their scratch lazily, so a pool stays valid across Insert.
type pool[S any] struct{ p sync.Pool }

func newPool[I, S any](idx I, newSearcher func(I) *S) *pool[S] {
	return &pool[S]{sync.Pool{New: func() any { return newSearcher(idx) }}}
}

func (p *pool[S]) Get() *S  { return p.p.Get().(*S) }
func (p *pool[S]) Put(s *S) { p.p.Put(s) }

// invBackend adapts a rank-augmented inverted index: InvertedIndex installs
// one per rebuild.
type invBackend struct {
	idx  *invindex.Index
	pool *pool[invindex.Searcher]
	alg  Algorithm
}

func (b invBackend) Name() string { return backendInverted }
func (b invBackend) Len() int     { return b.idx.Live() }
func (b invBackend) K() int       { return b.idx.K() }

func (b invBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	switch b.alg {
	case FilterValidate:
		return s.FilterValidate(q, rawTheta, ev)
	case FilterValidateDrop:
		return s.FilterValidateDrop(q, rawTheta, ev, invindex.DropSafe)
	case ListMerge:
		return s.ListMerge(q, rawTheta, ev)
	default:
		return nil, fmt.Errorf("topk: unknown algorithm %d", b.alg)
	}
}

// nearestRaw is the native single-pass KNN over the rank-augmented postings.
// It reads the lists through idx.Postings, so rankings inserted after the
// build are included, and evaluates no distance function (ev is untouched).
func (b invBackend) nearestRaw(q Ranking, n int, ext []ID, _ *metric.Evaluator) ([]Result, bool, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	res, err := s.NearestNeighbors(q, n, ext)
	return res, true, err
}

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

// treeBackend adapts a metric tree. The BK-tree kind additionally provides
// the native best-first exact KNN traversal.
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

// nearestRaw is the BK-tree's best-first traversal, which selects in
// internal id order only; the other tree kinds take the reduction.
func (b treeBackend) nearestRaw(q Ranking, n int, ext []ID, ev *metric.Evaluator) ([]Result, bool, error) {
	bk, ok := b.tree.(*bktree.Tree)
	if !ok || ext != nil {
		return nil, false, nil
	}
	return knn.BestFirst(bk, q, n, ev), true, nil
}

// adaptBackend adapts the AdaptSearch delta inverted index built as a
// HybridIndex's forced sidecar over its inverted index's internal id space,
// tombstones included: dead is that index's tombstone predicate, filtered out
// of every answer.
type adaptBackend struct {
	idx  *adaptsearch.Index
	pool *pool[adaptsearch.Searcher]
	dead func(ID) bool
}

func (b adaptBackend) Name() string { return backendAdaptSearch }
func (b adaptBackend) Len() int     { return b.idx.Len() }
func (b adaptBackend) K() int       { return b.idx.K() }

func (b adaptBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	s := b.pool.Get()
	defer b.pool.Put(s)
	res, err := s.Query(q, rawTheta, ev)
	return slices.DeleteFunc(res, func(r Result) bool { return b.dead(r.ID) }), err
}
