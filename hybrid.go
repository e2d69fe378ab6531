// HybridIndex: the serving engine of the package and topkserve's default
// kind. It is the mutable InvertedIndex with FilterValidateDrop — F&V+Drop
// range search, which validates only the candidates its postings leave
// undecided, and the native posting-list KNN — whose mutations and
// tombstone-ratio compaction are the InvertedIndex's own (mutate.go). What
// the hybrid adds is the comparison the end-to-end harness draws: Force
// pins every query to one of HybridBackends, and a forced adaptsearch
// answers from an AdaptSearch prefix filter built on demand over the
// inverted index's internal id space. Measured at one benchmark shard the
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
	"topk/internal/invindex"
)

// HybridBackends names the backends Force accepts, the default first.
var HybridBackends = []string{
	backendInverted,
	backendAdaptSearch,
}

// Positions of the two backends in HybridBackends and PlanStats.
const (
	hybridInverted = iota
	hybridAdaptSearch
)

var _ MutableIndex = (*HybridIndex)(nil)

// HybridIndex is an InvertedIndex with FilterValidateDrop plus two plan
// counters and Force. Every query — range or KNN — is answered by the
// inverted index unless Force pins adaptsearch; PlanStats counts the answered
// queries per backend. Insert, Delete, Update, Compact, Slots, Len, K,
// Tombstones and Rebuilds are the embedded index's, so external IDs are
// stable across mutations and compactions and snapshots round-trip through
// Slots. All methods are safe for concurrent use.
type HybridIndex struct {
	*InvertedIndex

	// forced is the pinned backend's position in HybridBackends (-1 when
	// Force("") lifted the pin); only hybridAdaptSearch leaves the default
	// route. plans counts the queries each backend answered.
	forced atomic.Int32
	plans  [2]atomic.Uint64

	// sideMu guards the AdaptSearch sidecar a forced query answers from: side
	// is built over sideOf, the inverted index's internal id space, the first
	// time a forced query needs it and reused until a mutation or a
	// compaction changes that space. Lifting the pin drops it.
	sideMu sync.Mutex
	side   adaptBackend
	sideOf *invindex.Index
}

// HybridOption configures NewHybridIndex.
type HybridOption func(*InvertedIndex)

// WithHybridMaxTheta does nothing.
//
// Deprecated: the threshold was the operating point the coarse backend's θC
// was tuned for, and the hybrid no longer builds a coarse backend. The option
// remains only until benchmark/ stops passing it.
func WithHybridMaxTheta(float64) HybridOption { return func(*InvertedIndex) {} }

// WithHybridCalibration does nothing.
//
// Deprecated: the replay seeded the per-threshold cost estimates of a router
// the hybrid no longer has — every query goes to the inverted backend unless
// one is forced. The option remains only until benchmark/ stops passing it.
func WithHybridCalibration(int) HybridOption { return func(*InvertedIndex) {} }

// WithHybridDeltaRatio sets the compaction ratio of the hybrid's inverted
// index (see WithCompactionRatio): the tombstone fraction of the internal id
// space above which Delete and Update rebuild it over the survivors, default
// DefaultCompactionRatio. A ratio ≤ 0 disables automatic compaction.
func WithHybridDeltaRatio(ratio float64) HybridOption {
	return HybridOption(WithCompactionRatio(ratio))
}

// NewHybridIndex builds a hybrid index over the collection.
func NewHybridIndex(rankings []Ranking, opts ...HybridOption) (*HybridIndex, error) {
	if _, err := validateCollection(rankings); err != nil {
		return nil, err
	}
	return newHybridFromSlots(rankings, opts)
}

// NewHybridIndexFromSlots builds a hybrid index from an external-id slot
// array as produced by (*HybridIndex).Slots or a persist snapshot: the
// ranking at position i gets external ID i, and nil entries are tombstoned
// IDs that stay retired. A zero live count is legal — a shard of a
// heavily-deleted snapshot can be all tombstones — and yields k = 0 until
// the first Insert defines the size.
func NewHybridIndexFromSlots(slots []Ranking, opts ...HybridOption) (*HybridIndex, error) {
	if _, _, err := validateSlots(slots); err != nil {
		return nil, err
	}
	return newHybridFromSlots(slots, opts)
}

func newHybridFromSlots(slots []Ranking, opts []HybridOption) (*HybridIndex, error) {
	invOpts := make([]InvOption, len(opts))
	for i, o := range opts {
		invOpts[i] = InvOption(o)
	}
	ii, err := newInvertedFromSlots(slots, invOpts)
	if err != nil {
		return nil, err
	}
	h := &HybridIndex{InvertedIndex: ii}
	ii.route = h.route
	return h, nil
}

// route picks the backend of one query; the query half calls it under the
// read lock, so the internal id space cannot change while the sidecar is
// checked or built over it.
func (h *HybridIndex) route() (backend, error) {
	if h.forced.Load() != hybridAdaptSearch {
		return h.backend, nil
	}
	h.sideMu.Lock()
	defer h.sideMu.Unlock()
	if h.sideOf != h.inv || h.side.idx.Len() != h.inv.Len() {
		// Tombstoned rankings stay in the sidecar; Deleted filters them.
		ad, err := adaptsearch.New(h.inv.Rankings())
		if err != nil {
			return nil, fmt.Errorf("topk: hybrid backend %q: %w", backendAdaptSearch, err)
		}
		h.side = adaptBackend{idx: ad, pool: newPool(ad, adaptsearch.NewSearcher), dead: h.inv.Deleted}
		h.sideOf = h.inv
	}
	return h.side, nil
}

// plan counts an answered query on the backend that answered it.
func (h *HybridIndex) plan(res []Result, name string, calls uint64, err error) ([]Result, string, uint64, error) {
	if err == nil {
		h.plans[slices.Index(HybridBackends, name)].Add(1)
	}
	return res, name, calls, err
}

// Search implements Index.
func (h *HybridIndex) Search(q Ranking, theta float64) ([]Result, error) {
	res, _, _, err := h.SearchTraced(q, theta)
	return res, err
}

// SearchTraced is Search plus per-query attribution: the name of the
// backend that answered and the Footrule evaluations the query cost — the
// range query of the shard.Index contract, behind topkserve's query tracing
// and slow-query log.
func (h *HybridIndex) SearchTraced(q Ranking, theta float64) ([]Result, string, uint64, error) {
	return h.plan(h.InvertedIndex.SearchTraced(q, theta))
}

// NearestNeighbors implements NearestNeighborSearcher: the inverted index's
// native single-pass KNN unless adaptsearch is forced, which answers through
// the expanding-radius reduction (knn.Expanding) over its range search.
func (h *HybridIndex) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	res, _, _, err := h.NearestNeighborsTraced(q, n)
	return res, err
}

// NearestNeighborsTraced is NearestNeighbors plus per-query attribution (0
// distance calls on the native inverted path) — the KNN query of the
// shard.Index contract, behind topkserve's /knn tracing.
func (h *HybridIndex) NearestNeighborsTraced(q Ranking, n int) ([]Result, string, uint64, error) {
	return h.plan(h.InvertedIndex.NearestNeighborsTraced(q, n))
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
		h.side, h.sideOf = adaptBackend{}, nil
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

// PlanStats snapshots how many queries each backend answered — the plan
// counters behind topkserve's GET /stats.
func (h *HybridIndex) PlanStats() []PlanStats {
	out := make([]PlanStats, len(HybridBackends))
	for i, name := range HybridBackends {
		out[i] = PlanStats{Backend: name, Plans: h.plans[i].Load()}
	}
	return out
}
