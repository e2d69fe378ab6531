// HybridIndex: the unified query engine of the package. It builds two
// physical backends over one collection — the rank-augmented inverted index
// (F&V+Drop) and the AdaptSearch prefix filter — and serves every query,
// range and KNN alike, from the inverted index: measured at one benchmark
// shard it is the faster of the two at every threshold of the paper's query
// range (θ ≤ 0.3; see the README's "Why the hybrid serves from one"), so the
// route is a constant, not an estimate. The AdaptSearch sidecar answers only
// when it is forced (Force, WithForcedBackend) — the escape hatch for θ > 0.3
// workloads, and the comparison the end-to-end harness draws. The paper's
// other structures (blocked, coarse, metric trees) are standalone kinds and
// topkbench baselines, not serving backends.
package topk

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"topk/internal/adaptsearch"
	"topk/internal/invindex"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/persist"
	"topk/internal/ranking"
)

// HybridBackends names the two backends every HybridIndex builds, in routing
// order — the only names Force and WithForcedBackend accept.
var HybridBackends = []string{
	backendInverted,
	backendAdaptSearch,
}

// Positions of the two backends in HybridBackends and hybridEpoch.backends.
const (
	hybridInverted = iota
	hybridAdaptSearch
)

// HybridIndex holds the two HybridBackends over the same collection behind
// one query interface. Every query — range or KNN — goes to the inverted
// backend unless Force (or WithForcedBackend) pins the other one; PlanStats
// counts the answered queries per backend.
//
// The collection is fully mutable (HybridIndex implements MutableIndex)
// through the package's one mutation core (mutate.go), run over the inverted
// index: it absorbs every mutation in place and owns the epoch's internal id
// space, while the static adaptsearch backend answers over its build-time
// base region plus the inverted index's tail — the append-only delta overlay
// each of its queries merges by linear scan, filtering through the inverted
// index's tombstones — so both keep returning byte-identical results. Once
// the overlay exceeds a configurable fraction of the collection
// (WithHybridDeltaRatio), a background epoch rebuild folds the delta and
// all tombstones back into both backends; Compact does the same
// synchronously. External IDs are stable across mutations and rebuilds, and
// snapshots round-trip through Slots.
// All methods are safe for concurrent use.
type HybridIndex struct {
	// mu is write-held by mutations and epoch installs only; queries proceed
	// concurrently under the read lock against the current epoch.
	mu sync.RWMutex
	ep *hybridEpoch

	// forced is the pinned backend's position in HybridBackends, -1 for none;
	// plans counts the queries each backend answered.
	forced atomic.Int32
	plans  [2]atomic.Uint64
	calls  atomic.Uint64
	cfg    hybridConfig

	rebuilds         atomic.Uint64
	rebuildNanos     atomic.Uint64 // cumulative wall time of installed rebuilds
	lastRebuildNanos atomic.Uint64
	// rebuilding marks a background fold in flight; foldGen invalidates it
	// when a synchronous Compact installs a fresher epoch first. oplog
	// records the mutations applied since the in-flight fold's snapshot so
	// they can be replayed onto the rebuilt epoch. All three are guarded by mu.
	rebuilding bool
	foldGen    uint64
	oplog      []hybridOp

	// spillFallbacks counts epochs that were asked to spill (WithHybridSpill)
	// and came up on the heap instead; spillErr keeps the first reason. Both
	// are guarded by mu.
	spillFallbacks uint64
	spillErr       error
}

// hybridEpoch is the physical state of one hybrid build: the mutation core
// over the inverted index — which owns the epoch's internal id space, every
// ranking and every tombstone in it — beside the static adaptsearch sidecar
// built over the same base region, which reads the inverted index's tail as
// its delta overlay.
type hybridEpoch struct {
	mutationCore // inner is inv
	inv          *epochInv

	backends [2]backend // in HybridBackends order

	// spillBytes is the size of the mmapped paged arena backing this epoch
	// (0 when the arena is heap-resident; see WithHybridSpill). spillErr is
	// why an epoch that was asked to spill is heap-resident anyway.
	spillBytes int
	spillErr   error
}

// epochInv is an epoch's inverted index plus the two facts the sidecar's
// overlay needs about it: ids below base are the dense build-time region
// adaptsearch indexes (everything after is delta), and deadBase of them are
// tombstoned and must be filtered from its answers.
type epochInv struct {
	*invindex.Index
	base     int
	deadBase int
}

func (e *epochInv) Delete(id ID) error {
	if err := e.Index.Delete(id); err != nil {
		return err
	}
	if int(id) < e.base {
		e.deadBase++
	}
	return nil
}

// delta is the append-only region behind the base: inserts and update
// replacements since the build, tombstoned ones included.
func (e *epochInv) delta() []Ranking { return e.Rankings()[e.base:] }

// HybridOption configures NewHybridIndex.
type HybridOption func(*hybridConfig)

type hybridConfig struct {
	forced     string
	deltaRatio float64
	spillDir   string
}

// WithForcedBackend pins every query to one backend from construction on
// (see Force). The name must be one of HybridBackends; Force("") lifts the
// pin later.
func WithForcedBackend(name string) HybridOption {
	return func(c *hybridConfig) { c.forced = name }
}

// WithHybridMaxTheta does nothing.
//
// Deprecated: the threshold was the operating point the coarse backend's θC
// was tuned for, and the hybrid no longer builds a coarse backend. The option
// remains only until benchmark/ stops passing it.
func WithHybridMaxTheta(float64) HybridOption { return func(*hybridConfig) {} }

// WithHybridCalibration does nothing.
//
// Deprecated: the replay seeded the per-threshold cost estimates of a router
// the hybrid no longer has — every query goes to the inverted backend unless
// one is forced. The option remains only until benchmark/ stops passing it.
func WithHybridCalibration(int) HybridOption { return func(*hybridConfig) {} }

// WithHybridSpill makes every epoch build spill its k-strided ranking arena
// to a paged snapshot v3 temp file under dir ("" selects the OS temp
// directory) and serve it through a read-only memory mapping instead of heap
// memory: queries run over page-cache-backed views, so cold pages of a
// rarely-queried collection can be evicted by the OS. The file is unlinked
// as soon as it is mapped and the mapping lives until process exit (epoch
// views can outlive the epoch in concurrent queries and snapshot streams).
// On platforms without mmap, or when the spill write fails, the build falls
// back to the in-memory arena — counted and explained by SpillFallbacks, never
// silent. Query results are byte-identical either way.
func WithHybridSpill(dir string) HybridOption {
	return func(c *hybridConfig) {
		if dir == "" {
			dir = os.TempDir()
		}
		c.spillDir = dir
	}
}

// WithHybridDeltaRatio sets the overlay fraction — delta inserts plus
// base-region tombstones, relative to the whole internal id space — above
// which a mutation schedules the background epoch rebuild that folds the
// overlay back into both backends (default DefaultCompactionRatio). A ratio
// ≤ 0 disables automatic rebuilds; Compact still folds on demand.
func WithHybridDeltaRatio(ratio float64) HybridOption {
	return func(c *hybridConfig) { c.deltaRatio = ratio }
}

// NewHybridIndex builds both HybridBackends over the collection.
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
	cfg := hybridConfig{deltaRatio: DefaultCompactionRatio}
	for _, o := range opts {
		o(&cfg)
	}
	h := &HybridIndex{cfg: cfg}
	if err := h.Force(cfg.forced); err != nil {
		return nil, err
	}
	ep, err := buildEpoch(slots, cfg)
	if err != nil {
		return nil, err
	}
	h.ep = ep
	h.noteSpillLocked(ep) // not yet shared: no lock needed
	return h, nil
}

// buildEpoch constructs one full epoch — id map, both backends, overlay
// wiring — from an external-id slot array. Zero live rankings — an
// all-tombstone shard of a churned snapshot, legal for every mutable kind —
// build two empty structures: k is defined by the first insert, which the
// inverted index absorbs and the sidecar sees as delta.
func buildEpoch(slots []Ranking, cfg hybridConfig) (*hybridEpoch, error) {
	m, live := newSlotsIDMap(slots)
	// Flatten the live collection once into a single k-strided arena: the
	// inverted index reads the store directly (batched kernel validation
	// against contiguous memory) and adaptsearch its views, so the epoch
	// carries one copy of the ranking payload. With WithHybridSpill the arena
	// lives in an mmapped paged-v3 temp file instead of the heap.
	st, spillBytes, spillErr := epochStore(live, cfg.spillDir)
	live = st.Views()

	// The two structures share nothing but the read-only store: build the
	// inverted index beside adaptsearch.
	var (
		wg     sync.WaitGroup
		inv    *invindex.Index
		invErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		inv, invErr = invindex.NewFromStore(st)
	}()
	ad, adErr := adaptsearch.New(live)
	wg.Wait()
	if invErr != nil {
		return nil, fmt.Errorf("topk: hybrid backend %q: %w", backendInverted, invErr)
	}
	if adErr != nil {
		return nil, fmt.Errorf("topk: hybrid backend %q: %w", backendAdaptSearch, adErr)
	}
	ep := &hybridEpoch{
		inv:        &epochInv{Index: inv, base: len(live)},
		spillBytes: spillBytes,
		spillErr:   spillErr,
	}
	ep.mutationCore = mutationCore{ids: m, k: inv.K(), inner: ep.inv}
	ep.backends[hybridInverted] = invBackend{idx: inv, pool: newPool(inv, invindex.NewSearcher), alg: FilterValidateDrop}
	ep.backends[hybridAdaptSearch] = overlayBackend{
		inner: adaptBackend{idx: ad, pool: newPool(ad, adaptsearch.NewSearcher)}, ep: ep}
	return ep, nil
}

// epochStore flattens the live collection into the epoch's shared store.
// Without a spill directory this is a plain heap arena. With one, the live
// rankings are written as a paged snapshot v3 temp file, mmapped read-only,
// and immediately unlinked — the store then borrows the mapping's views and
// the reported size is the mapped byte count. Any failure along the spill
// path (full disk, no mmap on this platform) degrades to the heap arena —
// spilling is a memory-residency optimization, never a correctness
// dependency — and is returned beside the heap store for the index to count.
func epochStore(live []Ranking, spillDir string) (*kernel.Store, int, error) {
	if spillDir == "" || len(live) == 0 {
		return kernel.NewStore(live), 0, nil
	}
	st, n, err := spillEpochStore(live, spillDir)
	if err != nil {
		return kernel.NewStore(live), 0, err
	}
	return st, n, nil
}

// spillEpochStore writes live as a paged v3 file under dir and returns a
// borrowed store over its mapping. The file is unlinked right after opening:
// on unix the mapping keeps the pages alive, and the mapping itself is
// retained until process exit because epoch views escape into queries,
// snapshot streams and rebuilds that can outlive the epoch installing them.
func spillEpochStore(live []Ranking, dir string) (*kernel.Store, int, error) {
	f, err := os.CreateTemp(dir, "epoch-*.v3")
	if err != nil {
		return nil, 0, err
	}
	path := f.Name()
	if _, err := persist.WritePagedTo(f, live); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return nil, 0, err
	}
	pc, err := persist.OpenPagedFile(path, true)
	os.Remove(path)
	if err != nil {
		return nil, 0, err
	}
	if !pc.Mapped() {
		// The fallback full read would double memory (heap copy and no page
		// cache sharing) for zero benefit over a plain arena.
		pc.Close()
		return nil, 0, errSpillNotMapped
	}
	return kernel.NewStoreFromViews(pc.Layout().K, pc.Slots()), pc.MappedBytes(), nil
}

// errSpillNotMapped reports that OpenPagedFile fell back to a full read, so
// the spill would not save heap memory.
var errSpillNotMapped = fmt.Errorf("topk: spill file could not be mmapped")

// ---------------------------------------------------------------------------
// Delta overlay
// ---------------------------------------------------------------------------

// overlayBackend layers the epoch's mutation overlay over the static
// adaptsearch sidecar: the inner answer covers the base region and is
// filtered through the inverted index's tombstones, then the delta region —
// the inverted index's rankings past the base — is scanned linearly with the
// same filtering. Delta internal ids all exceed base ids, so appending the
// scan keeps the id-sorted order SearchRaw guarantees, and the scan compares
// d ≤ rawTheta against the same clamped radius the inverted backend sees —
// results stay byte-identical across both. An un-mutated epoch pays two
// integer compares.
type overlayBackend struct {
	inner adaptBackend
	ep    *hybridEpoch
}

func (b overlayBackend) Name() string { return b.inner.Name() }
func (b overlayBackend) Len() int     { return b.ep.ids.live }
func (b overlayBackend) K() int       { return b.ep.k }

func (b overlayBackend) SearchRaw(q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	res, err := b.inner.SearchRaw(q, rawTheta, ev)
	if err != nil {
		return nil, err
	}
	inv := b.ep.inv
	if inv.deadBase > 0 {
		kept := res[:0]
		for _, r := range res {
			if !inv.Deleted(r.ID) {
				kept = append(kept, r)
			}
		}
		res = kept
	}
	if delta := inv.delta(); len(delta) > 0 {
		// Scan the delta through a pooled compiled kernel: one DFC per
		// non-tombstoned entry.
		kern := overlayKernels.Get().(*kernel.Kernel)
		kern.Compile(q)
		scanned := uint64(0)
		for i, r := range delta {
			intID := ID(inv.base + i)
			if inv.Deleted(intID) {
				continue
			}
			scanned++
			if d := kern.Distance(r); d <= rawTheta {
				res = append(res, Result{ID: intID, Dist: d})
			}
		}
		overlayKernels.Put(kern)
		if ev != nil {
			ev.Add(scanned)
		}
	}
	return res, nil
}

// overlayKernels pools compiled-kernel state for the delta overlay scans;
// overlay queries run on arbitrary request goroutines, so the scratch cannot
// live on a per-searcher struct the way the backend kernels do.
var overlayKernels = sync.Pool{New: func() any { return kernel.New() }}

// search runs one backend at a raw threshold. A structure over an empty
// region answers nothing and checks nothing, so an epoch built over zero live
// rankings enforces the query contract here, for both routes.
func (ep *hybridEpoch) search(bi int, q Ranking, rawTheta int, ev *metric.Evaluator) ([]Result, error) {
	if ep.inv.base == 0 {
		if err := checkQuery(q, ep.k); err != nil {
			return nil, err
		}
	}
	return ep.backends[bi].SearchRaw(q, rawTheta, ev)
}

// overlayFraction is the share of the internal id space the overlay must
// touch per adaptsearch query: delta entries are linearly scanned and dead
// base slots filtered from every answer.
func (ep *hybridEpoch) overlayFraction() float64 {
	inv := ep.inv
	n := inv.Len()
	if n == 0 {
		return 0
	}
	return float64(n-inv.base+inv.deadBase) / float64(n)
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

// route is the whole routing policy: the forced backend if one is pinned,
// else inverted — for range queries and KNN alike.
func (h *HybridIndex) route() int {
	if f := h.forced.Load(); f >= 0 {
		return int(f)
	}
	return hybridInverted
}

// Search implements Index: the query runs on the routed backend (including
// the epoch's delta overlay on a forced adaptsearch).
func (h *HybridIndex) Search(q Ranking, theta float64) ([]Result, error) {
	res, _, _, err := h.SearchTraced(q, theta)
	return res, err
}

// SearchTraced is Search plus per-query attribution: the name of the
// backend that answered and the Footrule evaluations the query cost — the
// half of the shard.Index contract behind topkserve's query tracing and
// slow-query log.
func (h *HybridIndex) SearchTraced(q Ranking, theta float64) ([]Result, string, uint64, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ep := h.ep
	bi := h.route()
	ev := metric.New(nil)
	// Clamped so the answer at θ = 1 is the same whichever backend is
	// forced (the overlay's linear scan would otherwise also see the
	// zero-overlap rankings at distance exactly dmax).
	res, err := ep.search(bi, q, clampRawTheta(ranking.RawThreshold(theta, ep.k), ep.k), ev)
	if err != nil {
		return nil, "", 0, err
	}
	h.plans[bi].Add(1)
	h.calls.Add(ev.Calls())
	ep.ids.remapSearch(res)
	return res, ep.backends[bi].Name(), ev.Calls(), nil
}

// NearestNeighbors implements NearestNeighborSearcher. Unless adaptsearch is
// forced, KNN is answered by the inverted backend's native single-pass KNN
// (invindex.Searcher.NearestNeighbors) — one walk over the query's posting
// lists, shortest first, that derives each candidate's exact distance from
// the posting ranks and stops admitting candidates once n of them are out of
// reach of any ranking not yet seen. The inverted index owns the epoch's id space and tombstones
// in place, so deltas and deletes need no overlay scan, and the selection
// breaks distance ties by external id directly. Like ListMerge, the native
// path evaluates no distance function and adds nothing to DistanceCalls. A
// forced adaptsearch answers through the expanding-radius reduction
// (knn.Expanding) over the overlay-merged range search.
func (h *HybridIndex) NearestNeighbors(q Ranking, n int) ([]Result, error) {
	res, _, _, err := h.NearestNeighborsTraced(q, n)
	return res, err
}

// NearestNeighborsTraced is NearestNeighbors plus per-query attribution:
// the backend that answered and the Footrule evaluations the query cost (0
// on the native inverted path) — the other half of the shard.Index contract,
// behind topkserve's /knn tracing.
func (h *HybridIndex) NearestNeighborsTraced(q Ranking, n int) ([]Result, string, uint64, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ep := h.ep
	bi := h.route()
	ev := metric.New(nil)
	res, err := nearestBackend(ep.backends[bi], &ep.mutationCore, q, n, ev)
	h.calls.Add(ev.Calls())
	if err != nil {
		return nil, "", 0, err
	}
	h.plans[bi].Add(1)
	return res, ep.backends[bi].Name(), ev.Calls(), nil
}

// Force pins every subsequent query to the named backend, one of
// HybridBackends — the escape hatch for workloads past the paper's query
// range (θ > 0.3), where adaptsearch can be the faster one. An empty name
// restores the default route, inverted.
func (h *HybridIndex) Force(name string) error {
	i := slices.Index(HybridBackends, name)
	if i < 0 && name != "" {
		return fmt.Errorf("topk: unknown hybrid backend %q (have %v)", name, HybridBackends)
	}
	h.forced.Store(int32(i))
	return nil
}

// Forced reports the pinned backend name, "" when none is.
func (h *HybridIndex) Forced() string {
	if f := h.forced.Load(); f >= 0 {
		return HybridBackends[f]
	}
	return ""
}

// Backends returns the built backend names in routing order: HybridBackends.
func (h *HybridIndex) Backends() []string { return HybridBackends }

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

// Len implements Index, counting live (non-tombstoned) rankings.
func (h *HybridIndex) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ep.ids.live
}

// K implements Index. An index built over zero live rankings reports 0
// until the first Insert defines the size.
func (h *HybridIndex) K() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ep.k
}

// DistanceCalls implements Index: Footrule evaluations across both backends,
// including delta-overlay scans.
func (h *HybridIndex) DistanceCalls() uint64 { return h.calls.Load() }

// DeltaLen reports how many rankings currently live in the append-only
// delta overlay (including tombstoned delta entries) — the linear-scan tax
// every adaptsearch query pays until the next epoch rebuild.
func (h *HybridIndex) DeltaLen() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.ep.inv.delta())
}

// Tombstones reports how many tombstoned rankings are awaiting the next
// epoch rebuild.
func (h *HybridIndex) Tombstones() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ep.inv.Dead()
}

// SpillBytes reports the size of the mmapped paged arena backing the current
// epoch, or 0 when the epoch is heap-resident (no WithHybridSpill, empty
// collection, or the spill fell back to the heap).
func (h *HybridIndex) SpillBytes() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ep.spillBytes
}

// noteSpillLocked records an epoch that fell back from its spill file to the
// heap.
func (h *HybridIndex) noteSpillLocked(ep *hybridEpoch) {
	if ep.spillErr == nil {
		return
	}
	h.spillFallbacks++
	if h.spillErr == nil {
		h.spillErr = ep.spillErr
	}
}

// SpillFallbacks reports how many epochs — the construction build and every
// installed rebuild — were asked to spill (WithHybridSpill) and fell back to
// the heap arena, and the error behind the first of them (nil when none did).
func (h *HybridIndex) SpillFallbacks() (uint64, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.spillFallbacks, h.spillErr
}

// Rebuilds reports how many epoch rebuilds (background folds and explicit
// Compact calls) have been installed since construction.
func (h *HybridIndex) Rebuilds() uint64 { return h.rebuilds.Load() }

// RebuildStats describes the epoch-rebuild history of a HybridIndex:
// how many rebuilds were installed and the wall time they cost. Discarded
// folds (build failure, superseded by Compact) are not counted.
type RebuildStats struct {
	// Rebuilds counts installed rebuilds (background folds + Compact).
	Rebuilds uint64 `json:"rebuilds"`
	// TotalNanos is the cumulative wall time from rebuild start to epoch
	// install; LastNanos the most recent rebuild's.
	TotalNanos uint64 `json:"totalNanos,omitempty"`
	LastNanos  uint64 `json:"lastNanos,omitempty"`
}

// RebuildStats snapshots the rebuild counters.
func (h *HybridIndex) RebuildStats() RebuildStats {
	return RebuildStats{
		Rebuilds:   h.rebuilds.Load(),
		TotalNanos: h.rebuildNanos.Load(),
		LastNanos:  h.lastRebuildNanos.Load(),
	}
}

// Slots returns the external-id slot view of the collection: slots[id] is
// the live ranking under id, nil for retired ids. Feed it to
// persist.WritePagedTo for a snapshot and to NewHybridIndexFromSlots to
// restore with all ids preserved — the delta overlay and tombstones are
// materialized into the slot array, so a snapshot taken mid-epoch loads as
// a freshly folded index.
func (h *HybridIndex) Slots() []Ranking {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.ep.slots()
}
