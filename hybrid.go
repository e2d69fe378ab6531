// HybridIndex: the library's serving engine. It is the mutable InvertedIndex
// — F&V+Drop range search, which validates only the candidates its postings
// leave undecided, and the native posting-list KNN — whose mutations and tombstone-ratio compaction are the InvertedIndex's own
// (internal/invindex.Mutable, which cmd/topkserve serves directly for its
// hybrid kind). What the hybrid adds is the comparison the end-to-end harness
// draws: Force pins every query to one of HybridBackends, and a forced
// adaptsearch answers from an AdaptSearch prefix filter built on demand over
// the live collection. Measured on each half of the benchmark collection the
// inverted index is the faster of the two at every threshold from θ = 0 to
// 0.5 (see the README's "Why the hybrid serves from one"), so nothing routes
// to adaptsearch unless it is forced. The paper's other structures (blocked,
// coarse, metric trees) are standalone kinds and topkbench baselines.
package topk

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"topk/internal/adaptsearch"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// HybridBackends names the backends Force accepts, the default first; a
// traced query reports the one that answered it.
var HybridBackends = []string{"inverted", "adaptsearch"}

// Positions of the two backends in HybridBackends and PlanStats.
const (
	hybridInverted = iota
	hybridAdaptSearch
)

var _ MutableIndex = (*HybridIndex)(nil)

// HybridIndex is an InvertedIndex plus two plan counters and Force. Every
// query — range or KNN — is answered by the inverted index unless Force pins
// adaptsearch; PlanStats counts the answered queries per backend. Compact,
// Slots, Len, K, Tombstones and Rebuilds are the embedded index's, so
// external IDs are stable across mutations and compactions and snapshots
// round-trip through Slots. All methods are safe for concurrent use.
type HybridIndex struct {
	*InvertedIndex

	// forced is the pinned backend's position in HybridBackends (-1 when
	// Force("") lifted the pin); only hybridAdaptSearch leaves the default
	// route. plans counts the queries each backend answered, and calls the
	// distance calls of the forced ones.
	forced atomic.Int32
	plans  [2]atomic.Uint64
	calls  atomic.Uint64
	// gen counts the successful mutations. A sidecar built at generation g
	// answers for the collection only while gen is still g.
	gen atomic.Uint64

	// sideMu guards side, the AdaptSearch sidecar a forced query answers from,
	// built the first time a forced query needs it and rebuilt once a
	// mutation has moved gen. Lifting the pin drops it.
	sideMu sync.Mutex
	side   *sidecar
}

// sidecar is the backend a forced query answers from, an AdaptSearch index
// of the hybrid's live rankings in external-id order: its dense id i is
// external id ext[i], and ext ascends, so id-sorted and (distance, id)-sorted
// answers stay sorted when remapped.
type sidecar struct {
	backend adaptBackend
	ext     []ID
	gen     uint64
}

// HybridOption configures NewHybridIndex: it is an InvOption.
type HybridOption = InvOption

// WithHybridMaxTheta does nothing.
//
// Deprecated: the threshold was the operating point the coarse backend's θC
// was tuned for, and the hybrid no longer builds a coarse backend. The option
// remains only until benchmark/ stops passing it.
func WithHybridMaxTheta(float64) HybridOption { return func(*float64) {} }

// WithHybridCalibration does nothing.
//
// Deprecated: the replay seeded the per-threshold cost estimates of a router
// the hybrid no longer has — every query goes to the inverted backend unless
// one is forced. The option remains only until benchmark/ stops passing it.
func WithHybridCalibration(int) HybridOption { return func(*float64) {} }

// WithHybridDeltaRatio sets the compaction ratio of the hybrid's inverted
// index (see WithCompactionRatio): the tombstone fraction of the internal id
// space above which Delete and Update rebuild it over the survivors, default
// DefaultCompactionRatio. A ratio ≤ 0 disables automatic compaction.
func WithHybridDeltaRatio(ratio float64) HybridOption {
	return WithCompactionRatio(ratio)
}

// NewHybridIndex builds a hybrid index over the collection.
func NewHybridIndex(rankings []Ranking, opts ...HybridOption) (*HybridIndex, error) {
	if len(rankings) == 0 {
		return nil, fmt.Errorf("topk: empty collection")
	}
	return NewHybridIndexFromSlots(rankings, opts...)
}

// NewHybridIndexFromSlots builds a hybrid index from an external-id slot
// array as produced by (*HybridIndex).Slots or a persist snapshot: the
// ranking at position i gets external ID i, and nil entries are tombstoned
// IDs that stay retired. A zero live count is legal — a heavily-deleted
// snapshot can be all tombstones — and yields k = 0 until
// the first Insert defines the size.
func NewHybridIndexFromSlots(slots []Ranking, opts ...HybridOption) (*HybridIndex, error) {
	ii, err := NewInvertedIndexFromSlots(slots, opts...)
	if err != nil {
		return nil, err
	}
	return &HybridIndex{InvertedIndex: ii}, nil
}

// Insert adds a ranking and returns its new, stable ID.
func (h *HybridIndex) Insert(r Ranking) (ID, error) {
	id, err := h.InvertedIndex.Insert(r)
	if err == nil {
		h.gen.Add(1)
	}
	return id, err
}

// Delete removes the ranking with the given ID; see InvertedIndex.
func (h *HybridIndex) Delete(id ID) error {
	err := h.InvertedIndex.Delete(id)
	if err == nil {
		h.gen.Add(1)
	}
	return err
}

// Update replaces the ranking stored under id, keeping the ID stable; see
// InvertedIndex.
func (h *HybridIndex) Update(id ID, r Ranking) error {
	err := h.InvertedIndex.Update(id, r)
	if err == nil {
		h.gen.Add(1)
	}
	return err
}

// sidecar returns the forced adaptsearch backend over the current live
// collection, building it if a mutation has moved the generation since the
// last build.
func (h *HybridIndex) sidecar() (*sidecar, error) {
	// Read before Slots: a mutation racing the build leaves the sidecar
	// tagged with a generation that has moved, never a stale one tagged
	// current.
	gen := h.gen.Load()
	h.sideMu.Lock()
	defer h.sideMu.Unlock()
	if h.side != nil && h.side.gen == gen {
		return h.side, nil
	}
	side := &sidecar{gen: gen}
	k := h.K()
	var live []Ranking
	for ext, r := range h.Slots() {
		if r != nil {
			live = append(live, r)
			side.ext = append(side.ext, ID(ext))
		}
	}
	if len(live) > 0 {
		k = live[0].K()
	}
	ad, err := adaptsearch.New(live)
	if err != nil {
		return nil, fmt.Errorf("topk: hybrid backend %q: %w", HybridBackends[hybridAdaptSearch], err)
	}
	side.backend = adaptBackend{idx: ad, pool: newPool(ad, adaptsearch.NewSearcher), k: k}
	h.side = side
	return side, nil
}

// forcedQuery answers one query from the sidecar, counting its distance
// calls on its own evaluator, and maps the sidecar's ids to external ones.
func (h *HybridIndex) forcedQuery(run func(adaptBackend, *metric.Evaluator) ([]Result, error)) ([]Result, string, uint64, error) {
	side, err := h.sidecar()
	if err != nil {
		return nil, "", 0, err
	}
	ev := metric.New(nil)
	res, err := run(side.backend, ev)
	h.calls.Add(ev.Calls())
	for i := range res {
		res[i].ID = side.ext[res[i].ID]
	}
	return h.plan(hybridAdaptSearch, res, ev.Calls(), err)
}

// plan counts an answered query on backend b of HybridBackends and names b;
// a rejected query names no backend and costs nothing.
func (h *HybridIndex) plan(b int, res []Result, calls uint64, err error) ([]Result, string, uint64, error) {
	if err != nil {
		return nil, "", 0, err
	}
	h.plans[b].Add(1)
	return res, HybridBackends[b], calls, nil
}

// Search implements Index.
func (h *HybridIndex) Search(q Ranking, theta float64) ([]Result, error) {
	res, _, _, err := h.SearchTraced(q, theta)
	return res, err
}

// SearchTraced is Search plus per-query attribution: the name of the
// backend that answered — which the end-to-end harness reads — and the
// Footrule evaluations the query cost.
func (h *HybridIndex) SearchTraced(q Ranking, theta float64) ([]Result, string, uint64, error) {
	if h.forced.Load() != hybridAdaptSearch {
		res, calls, err := h.InvertedIndex.SearchTraced(q, theta)
		return h.plan(hybridInverted, res, calls, err)
	}
	return h.forcedQuery(func(b adaptBackend, ev *metric.Evaluator) ([]Result, error) {
		return b.SearchRaw(q, ranking.RawThreshold(theta, b.K()), ev)
	})
}

// NearestNeighbors implements NearestNeighborSearcher: the inverted index's
// native single-pass KNN unless adaptsearch is forced, which answers through
// the expanding-radius reduction (knn.Expanding) over its range search.
// It shadows the embedded index's method, so a forced adaptsearch answers
// on every KNN path.
func (h *HybridIndex) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	res, _, _, err := h.NearestNeighborsTraced(q, n)
	return res, err
}

// NearestNeighborsTraced is NearestNeighbors plus per-query attribution: the
// backend that answered and the Footrule evaluations the query cost (none on
// the native inverted path).
func (h *HybridIndex) NearestNeighborsTraced(q Ranking, n int) ([]Result, string, uint64, error) {
	if h.forced.Load() != hybridAdaptSearch {
		res, err := h.InvertedIndex.NearestNeighbors(q, n)
		return h.plan(hybridInverted, res, 0, err)
	}
	return h.forcedQuery(func(b adaptBackend, ev *metric.Evaluator) ([]Result, error) {
		return nearestBackend(b, q, n, ev)
	})
}

// DistanceCalls implements Index: the inverted index's Footrule evaluations
// plus those of the queries forced onto adaptsearch.
func (h *HybridIndex) DistanceCalls() uint64 {
	return h.InvertedIndex.DistanceCalls() + h.calls.Load()
}

// Force pins every subsequent query to the named backend, one of
// HybridBackends — what the end-to-end harness uses to compare the two;
// adaptsearch is the slower one at every threshold measured. An empty name
// restores the default route, inverted.
func (h *HybridIndex) Force(name string) error {
	i := slices.Index(HybridBackends, name)
	if i < 0 && name != "" {
		return fmt.Errorf("topk: unknown hybrid backend %q (have %v)", name, HybridBackends)
	}
	h.forced.Store(int32(i))
	if i != hybridAdaptSearch {
		h.sideMu.Lock()
		h.side = nil
		h.sideMu.Unlock()
	}
	return nil
}

// PlanStats is the per-backend routing scoreboard of a HybridIndex.
type PlanStats struct {
	// Backend is the backend name.
	Backend string `json:"backend"`
	// Plans counts the queries — range and KNN — the backend answered.
	Plans uint64 `json:"plans"`
	// Observations and Mispredicts are always 0.
	//
	// Deprecated: they scored the cost estimates of a router the hybrid no
	// longer has, and remain only until benchmark/ stops reading them.
	Observations uint64 `json:"observations,omitempty"`
	Mispredicts  uint64 `json:"mispredicts,omitempty"`
}

// PlanStats snapshots how many queries each backend answered.
func (h *HybridIndex) PlanStats() []PlanStats {
	out := make([]PlanStats, len(HybridBackends))
	for i, name := range HybridBackends {
		out[i] = PlanStats{Backend: name, Plans: h.plans[i].Load()}
	}
	return out
}
