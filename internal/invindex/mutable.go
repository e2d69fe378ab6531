// The mutable index: Insert, Delete, Update and tombstone compaction over an
// Index, behind one RWMutex, with stable external ids.
//
// The paper's structures assume a static collection, but its distance model
// (Fagin et al.'s top-k lists) makes mutations natural: an updated ranking
// is just a new list under the same ID, so delete + re-insert gives exact
// update semantics without touching the distance machinery. Mutable writes
// that down once, on top of the Index's two primitives — append-only Insert
// and tombstoning Delete — plus an id indirection:
//
//   - External IDs (the ones Insert returns and queries report) are stable
//     for the lifetime of a ranking: Update keeps the ID, Delete retires it
//     forever, and compaction never renumbers.
//   - Internal IDs are the Index's dense, append-only id space. An Update
//     appends a fresh internal slot and tombstones the old one; both keep
//     mapping to the same external ID.
//   - The ranking size k is fixed by the collection, or — for an index built
//     over zero live rankings — by the first Insert that succeeds.
//
// Tombstoned slots still occupy postings. Once their fraction of the internal
// id space crosses the compaction ratio, the index is rebuilt over the
// survivors in place — under the same write lock that serializes every
// mutation, so concurrent queries observe the index before or after, and
// every answer is the same on both sides.
//
// Mutable is what cmd/topkserve serves, one per collection; package topk's
// InvertedIndex and HybridIndex wrap it for library users.
package invindex

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// ErrUnknownID is returned by Delete and Update for an external ID that was
// never assigned or has already been deleted.
var ErrUnknownID = errors.New("topk: unknown ranking id")

// DefaultCompactionRatio is the tombstone fraction of the internal id space
// above which a Mutable rebuilds itself.
const DefaultCompactionRatio = 0.25

// Algorithm selects the range-query algorithm of a Mutable. Every algorithm
// answers exactly the same; they differ in the work they do. KNN always runs
// the native posting-list pass (Searcher.NearestNeighbors).
type Algorithm int

const (
	// FilterValidate is the baseline F&V: merge all k lists, validate each
	// candidate.
	FilterValidate Algorithm = iota
	// FilterValidateDrop additionally drops whole index lists using the
	// Lemma 2 overlap bound (safe variant).
	FilterValidateDrop
	// ListMerge merges id-sorted rank-augmented lists, finalizing exact
	// distances on the fly; threshold-agnostic.
	ListMerge
)

// traceName is the backend name the traced queries report.
const traceName = "inverted"

// idmap is the external↔internal id indirection of a Mutable. It is guarded
// by the Mutable's RWMutex (queries remap under RLock, mutations rewrite under
// Lock).
type idmap struct {
	// ext2int maps an external id to its current internal id, -1 once
	// deleted. Grows by one per Insert, never shrinks.
	ext2int []int32
	// int2ext maps an internal id back to its external id. Entries of
	// tombstoned internal ids are stale but never read: every query filters
	// tombstones before it remaps.
	int2ext []ranking.ID
	// identity: no mutation ever diverged the two id spaces — remapping is
	// a no-op. inOrder: int2ext is ascending, so id-sorted internal results
	// stay sorted after remapping (broken by the first Update, restored by
	// compaction).
	identity bool
	inOrder  bool
}

// newSlotsIDMap covers an index restored from an external-id slot array
// (nil = tombstoned slot) of validated rankings of one size, and copies the
// live rankings, in external order, into the store the index is built over.
// Workers take contiguous slot ranges: one pass counts each range's live
// slots, which places the range in the internal id space, and a second fills
// the map and the store.
func newSlotsIDMap(slots []ranking.Ranking) (idmap, *kernel.Store) {
	p := workers(len(slots))
	before := make([]int, p+1) // live slots ahead of range c, then in all
	inChunks(len(slots), p, func(c, lo, hi int) {
		live := 0
		for _, r := range slots[lo:hi] {
			if r != nil {
				live++
			}
		}
		before[c+1] = live
	})
	for c := range p {
		before[c+1] += before[c]
	}
	live, k := before[p], 0
	if i := slices.IndexFunc(slots, func(r ranking.Ranking) bool { return r != nil }); i >= 0 {
		k = slots[i].K()
	}
	m := idmap{
		ext2int:  make([]int32, len(slots)),
		int2ext:  make([]ranking.ID, live),
		identity: live == len(slots),
		inOrder:  true,
	}
	flat := make([]ranking.Item, live*k)
	inChunks(len(slots), p, func(c, lo, hi int) {
		in := before[c]
		for ext := lo; ext < hi; ext++ {
			r := slots[ext]
			if r == nil {
				m.ext2int[ext] = -1
				continue
			}
			m.ext2int[ext], m.int2ext[in] = int32(in), ranking.ID(ext)
			copy(flat[in*k:(in+1)*k], r)
			in++
		}
	})
	return m, kernel.NewStoreFlat(k, flat)
}

// lookup resolves an external id to its internal id.
func (m *idmap) lookup(ext ranking.ID) (ranking.ID, error) {
	if int(ext) >= len(m.ext2int) || m.ext2int[ext] < 0 {
		return 0, fmt.Errorf("%w: %d", ErrUnknownID, ext)
	}
	return ranking.ID(m.ext2int[ext]), nil
}

// insert records a fresh internal id and assigns it the next external id.
func (m *idmap) insert(intID ranking.ID) ranking.ID {
	ext := ranking.ID(len(m.ext2int))
	m.ext2int = append(m.ext2int, int32(intID))
	m.int2ext = append(m.int2ext, ext)
	return ext
}

// delete retires an external id.
func (m *idmap) delete(ext ranking.ID) {
	m.ext2int[ext] = -1
	m.identity = false
}

// reassign points an existing external id at a fresh internal id (Update).
func (m *idmap) reassign(ext, intID ranking.ID) {
	m.ext2int[ext] = int32(intID)
	m.int2ext = append(m.int2ext, ext)
	m.identity = false
	m.inOrder = false
}

// remapSearch rewrites internal result ids to external ones in place and
// restores the id-sorted order a range query guarantees.
func (m *idmap) remapSearch(res []ranking.Result) {
	if m.identity {
		return
	}
	for i := range res {
		res[i].ID = m.int2ext[res[i].ID]
	}
	if !m.inOrder {
		ranking.SortResults(res)
	}
}

// remapNN rewrites internal result ids to external ones in place and
// restores the (distance, id) order a KNN query guarantees.
func (m *idmap) remapNN(res []ranking.Result) {
	if m.identity {
		return
	}
	for i := range res {
		res[i].ID = m.int2ext[res[i].ID]
	}
	if !m.inOrder {
		slices.SortFunc(res, ranking.CompareNearest)
	}
}

// Mutable is a rank-augmented inverted index with stable external ids under
// Insert, Delete, Update and synchronous tombstone compaction, answering
// range queries with one Algorithm and KNN queries with the native
// posting-list pass. All methods are safe for concurrent use: queries run in
// parallel under the read lock, each on a searcher from the pool, and
// mutations take the write lock.
type Mutable struct {
	// mu is write-held by mutations (Insert/Delete/Update/Compact) only.
	mu  sync.RWMutex
	ids idmap
	// k is the ranking size; 0 while an index built over zero live rankings
	// (an all-tombstone snapshot) waits for its first insert.
	k int
	// inv is the index over the internal id space: append-only Insert,
	// tombstoning Delete. searchers hands out Searchers bound to inv; both
	// are replaced by every rebuild. A searcher's scratch grows lazily, so
	// the pool stays valid across Insert.
	inv       *Index
	searchers *sync.Pool
	alg       Algorithm
	// compactRatio is the tombstone fraction of the internal id space above
	// which mutations trigger an automatic rebuild; ≤ 0 disables it.
	compactRatio float64

	calls atomic.Uint64
	// Compactions so far, with their cumulative and most recent wall time.
	rebuilds, rebuildNanos, lastRebuildNanos atomic.Uint64
}

// NewMutable builds a Mutable from an external-id slot array: the ranking at
// position i gets external ID i, and nil entries are retired IDs that stay
// retired. A zero live count is legal — a heavily-deleted snapshot
// can be all tombstones — and yields k = 0 until the first successful Insert
// defines the size. compactRatio is the tombstone fraction of the internal id
// space above which Delete and Update compact (≤ 0 disables it).
func NewMutable(slots []ranking.Ranking, alg Algorithm, compactRatio float64) (*Mutable, error) {
	if alg < FilterValidate || alg > ListMerge {
		return nil, fmt.Errorf("topk: unknown algorithm %d", alg)
	}
	k := 0 // the size of the first live slot
	if i := slices.IndexFunc(slots, func(r ranking.Ranking) bool { return r != nil }); i >= 0 {
		k = slots[i].K()
	}
	// Each worker checks a contiguous range of slots and stops at its first
	// bad one; the lowest range's is the collection's first.
	p := workers(len(slots))
	errs := make([]error, p)
	inChunks(len(slots), p, func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			if r := slots[i]; r == nil {
				continue
			} else if r.K() != k {
				errs[c] = fmt.Errorf("topk: slot %d has size %d, want %d: %w", i, r.K(), k, ranking.ErrSizeMismatch)
				return
			} else if err := r.Validate(); err != nil {
				errs[c] = fmt.Errorf("topk: slot %d: %w", i, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	m := &Mutable{alg: alg, compactRatio: compactRatio}
	if err := m.install(newSlotsIDMap(slots)); err != nil {
		return nil, err
	}
	return m, nil
}

// install (re)builds the index over st and points the id map at it; on
// error nothing changes. k survives a rebuild over zero survivors.
func (m *Mutable) install(ids idmap, st *kernel.Store) error {
	k := m.k
	if st.Len() > 0 {
		k = st.K()
	}
	inv, err := build(st)
	if err != nil {
		return err
	}
	m.ids, m.k, m.inv = ids, k, inv
	m.searchers = &sync.Pool{New: func() any { return NewSearcher(inv) }}
	return nil
}

// checkSize rejects a mutation payload of another size than the index's. The
// Index checks the rest of a payload itself, but it takes its size from its
// rankings, and a compaction over zero survivors leaves it none: the size it
// must keep lives here.
func (m *Mutable) checkSize(r ranking.Ranking, verb string) error {
	if m.k != 0 && r.K() != m.k {
		return fmt.Errorf("topk: %s ranking has size %d, want %d: %w",
			verb, r.K(), m.k, ranking.ErrSizeMismatch)
	}
	return nil
}

// checkQuery is the query contract of both query paths: the index's ranking
// size — which a compaction over zero survivors keeps though the Index then
// holds no ranking to check against — and no repeated item. Callers hold mu.
func (m *Mutable) checkQuery(q ranking.Ranking) error {
	if m.k != 0 && q.K() != m.k {
		return fmt.Errorf("topk: query size %d, index size %d: %w", q.K(), m.k, ranking.ErrSizeMismatch)
	}
	return q.Validate()
}

// Insert copies a ranking into the index and returns its new, stable ID; the
// caller may reuse r afterwards. On an index built over zero live rankings the
// first successful Insert defines the ranking size.
func (m *Mutable) Insert(r ranking.Ranking) (ranking.ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkSize(r, "inserted"); err != nil {
		return 0, err
	}
	intID, err := m.inv.Insert(r)
	if err != nil {
		return 0, err
	}
	// Committed only now: a rejected first insert must not define the size.
	m.k = r.K()
	return m.ids.insert(intID), nil
}

// Delete removes the ranking with the given ID by tombstoning it: every
// query skips it until the next compaction purges it. The ID is retired and
// never reused. Returns ErrUnknownID for unassigned or deleted IDs.
func (m *Mutable) Delete(id ranking.ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	intID, err := m.ids.lookup(id)
	if err != nil {
		return err
	}
	if err := m.inv.Delete(intID); err != nil {
		return err
	}
	m.ids.delete(id)
	m.maybeCompactLocked()
	return nil
}

// Update replaces the ranking stored under id, keeping the ID stable: the new
// version is appended and the old one tombstoned, both mapped to the same
// external ID (delete + re-insert, the exact update semantics of the Fagin et
// al. list model). The append comes first, so a rejected ranking leaves the
// index untouched. Returns ErrUnknownID for unassigned or deleted IDs.
func (m *Mutable) Update(id ranking.ID, r ranking.Ranking) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkSize(r, "updated"); err != nil {
		return err
	}
	old, err := m.ids.lookup(id)
	if err != nil {
		return err
	}
	newInt, err := m.inv.Insert(r)
	if err != nil {
		return err
	}
	m.ids.reassign(id, newInt)
	// Cannot fail for a slot lookup just resolved as live.
	if err := m.inv.Delete(old); err != nil {
		return err
	}
	m.maybeCompactLocked()
	return nil
}

// Compact rebuilds the index over the surviving rankings, discarding all
// tombstones. External IDs are preserved. Compact runs automatically once the
// tombstone fraction of the internal id space exceeds the compaction ratio;
// calling it explicitly is only needed to reclaim memory eagerly.
func (m *Mutable) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactLocked()
}

func (m *Mutable) maybeCompactLocked() {
	if m.compactRatio <= 0 {
		return
	}
	if n := m.inv.Len(); n > 0 && float64(m.inv.Dead()) > m.compactRatio*float64(n) {
		m.compactLocked()
	}
}

func (m *Mutable) compactLocked() error {
	start := time.Now()
	if err := m.install(newSlotsIDMap(m.slots())); err != nil {
		return err
	}
	d := uint64(time.Since(start))
	m.rebuilds.Add(1)
	m.rebuildNanos.Add(d)
	m.lastRebuildNanos.Store(d)
	return nil
}

// slots materializes the external-id slot view: slots[ext] is the live
// ranking under ext, nil for retired ids.
func (m *Mutable) slots() []ranking.Ranking {
	out := make([]ranking.Ranking, len(m.ids.ext2int))
	for ext, v := range m.ids.ext2int {
		if v >= 0 {
			out[ext] = m.inv.Ranking(ranking.ID(v))
		}
	}
	return out
}

// Slots returns the external-id slot view of the collection: slots[id] is
// the live ranking under id, nil for deleted ids. It is the unit of a
// snapshot (internal/persist) and what NewMutable restores from.
func (m *Mutable) Slots() []ranking.Ranking {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.slots()
}

// Tombstones reports how many tombstoned rankings are awaiting compaction.
func (m *Mutable) Tombstones() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.inv.Dead()
}

// Len returns the number of live (non-deleted) rankings.
func (m *Mutable) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.inv.Live()
}

// K returns the ranking size. An index built over zero live rankings reports
// 0 until the first Insert defines the size.
func (m *Mutable) K() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.k
}

// Rebuilds reports how many compactions have completed since construction.
func (m *Mutable) Rebuilds() uint64 { return m.rebuilds.Load() }

// RebuildStats describes the compaction history of a Mutable: how many
// rebuilds over the survivors ran — automatic and explicit Compact calls —
// and the wall time they cost. A failed rebuild is not counted.
type RebuildStats struct {
	// Rebuilds counts completed compactions.
	Rebuilds uint64 `json:"rebuilds"`
	// TotalNanos is the cumulative wall time of the compactions; LastNanos the
	// most recent one's.
	TotalNanos uint64 `json:"totalNanos,omitempty"`
	LastNanos  uint64 `json:"lastNanos,omitempty"`
}

// RebuildStats snapshots the compaction counters.
func (m *Mutable) RebuildStats() RebuildStats {
	return RebuildStats{
		Rebuilds:   m.rebuilds.Load(),
		TotalNanos: m.rebuildNanos.Load(),
		LastNanos:  m.lastRebuildNanos.Load(),
	}
}

// DistanceCalls returns the cumulative number of Footrule evaluations the
// range queries performed (the paper's DFC measure; ListMerge and KNN add
// none).
func (m *Mutable) DistanceCalls() uint64 { return m.calls.Load() }

// SearchTraced returns all live rankings within normalized Footrule distance
// theta of q, sorted by ID, with exact distances, plus the backend name
// ("inverted") and the Footrule evaluations this query cost.
func (m *Mutable) SearchTraced(q ranking.Ranking, theta float64) ([]ranking.Result, string, uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkQuery(q); err != nil {
		return nil, "", 0, err
	}
	s := m.searchers.Get().(*Searcher)
	ev := metric.New(nil)
	raw := ranking.RawThreshold(theta, m.k)
	var (
		res []ranking.Result
		err error
	)
	switch m.alg {
	case FilterValidate:
		res, err = s.FilterValidate(q, raw, ev)
	case FilterValidateDrop:
		res, err = s.FilterValidateDrop(q, raw, ev, DropSafe)
	default:
		res, err = s.ListMerge(q, raw, ev)
	}
	m.searchers.Put(s)
	m.calls.Add(ev.Calls())
	if err != nil {
		return nil, "", 0, err
	}
	m.ids.remapSearch(res)
	return res, traceName, ev.Calls(), nil
}

// Search is SearchTraced without the attribution.
func (m *Mutable) Search(q ranking.Ranking, theta float64) ([]ranking.Result, error) {
	res, _, _, err := m.SearchTraced(q, theta)
	return res, err
}

// NearestNeighborsTraced returns the n live rankings closest to q, ordered by
// (distance, external id), from the query's posting lists alone (see
// Searcher.NearestNeighbors), plus the backend name and 0 distance calls.
func (m *Mutable) NearestNeighborsTraced(q ranking.Ranking, n int) ([]ranking.Result, string, uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkQuery(q); err != nil {
		return nil, "", 0, err
	}
	// Non-monotonic id mapping (an Update reassigned an external id to a
	// later internal slot): KNN truncates distance ties by id, so the
	// selection must order by external id — remapping after the cut would
	// keep the wrong tied members.
	var ext []ranking.ID
	if !m.ids.inOrder {
		ext = m.ids.int2ext
	}
	s := m.searchers.Get().(*Searcher)
	res, err := s.NearestNeighbors(q, n, ext)
	m.searchers.Put(s)
	if err != nil {
		return nil, "", 0, err
	}
	m.ids.remapNN(res)
	return res, traceName, 0, nil
}

// NearestNeighbors is NearestNeighborsTraced without the attribution.
func (m *Mutable) NearestNeighbors(q ranking.Ranking, n int) ([]ranking.Result, error) {
	res, _, _, err := m.NearestNeighborsTraced(q, n)
	return res, err
}
