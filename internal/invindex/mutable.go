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
//   - The ranking size k is the declared one (NewMutable's k), else the
//     collection's, else — over zero live rankings — that of the first
//     Insert that succeeds. Every ranking the Mutable takes in, a slot it is
//     built over, a query or a mutation payload, passes ranking.Check
//     against it.
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

// newIDMap covers an index whose row in is the ranking under external id
// ext[in], in an id space of n external ids: ext ascends below n, and every
// id it skips is retired. The map adopts ext as int2ext.
func newIDMap(ext []ranking.ID, n int) (idmap, error) {
	m := idmap{ext2int: make([]int32, n), int2ext: ext, identity: len(ext) == n, inOrder: true}
	for i := range m.ext2int {
		m.ext2int[i] = -1
	}
	for in, e := range ext {
		if int(e) >= n || in > 0 && e <= ext[in-1] {
			return idmap{}, fmt.Errorf("topk: row %d has external id %d: ids must ascend below %d", in, e, n)
		}
		m.ext2int[e] = int32(in)
	}
	return m, nil
}

// gather copies the live rankings of an id space of n external ids — row(ext)
// is the ranking under ext, nil for a retired id — in external order into a
// fresh store of size k, and returns it with its external-id column. Workers
// take contiguous id ranges: one pass counts each range's live ids, which
// places the range in the store, and a second copies. ok is false if a live
// ranking is not k long; the store is then incomplete.
func gather(n, k int, row func(ext int) ranking.Ranking) (st *kernel.Store, ids []ranking.ID, ok bool) {
	p := workers(n)
	before, short := make([]int, p+1), make([]bool, p) // live ids ahead of range c, then in all
	inChunks(n, p, func(c, lo, hi int) {
		live := 0
		for ext := lo; ext < hi; ext++ {
			if row(ext) != nil {
				live++
			}
		}
		before[c+1] = live
	})
	for c := range p {
		before[c+1] += before[c]
	}
	flat, ids := make([]ranking.Item, before[p]*k), make([]ranking.ID, before[p])
	inChunks(n, p, func(c, lo, hi int) {
		in := before[c]
		for ext := lo; ext < hi; ext++ {
			r := row(ext)
			if r == nil {
				continue
			}
			if len(r) != k {
				short[c] = true
				return
			}
			copy(flat[in*k:], r)
			ids[in] = ranking.ID(ext)
			in++
		}
	})
	return kernel.NewStoreFlat(k, flat), ids, !slices.Contains(short, true)
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
	// k is the ranking size: declared or fixed by a live ranking, and kept
	// by a compaction over zero survivors; 0 while neither has set it.
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
// retired. k is the declared ranking size, 0 for none; without one the first
// live slot sets it. Every live slot must pass ranking.Check against it. A
// zero live count is legal — a heavily-deleted snapshot can be all
// tombstones — and the declared k, or else the first successful Insert,
// sizes such an index. compactRatio is the tombstone fraction of the
// internal id space above which Delete and Update compact (≤ 0 disables it).
// It copies the live slots into a store and calls NewMutableFromStore.
func NewMutable(slots []ranking.Ranking, k int, alg Algorithm, compactRatio float64) (*Mutable, error) {
	if i := slices.IndexFunc(slots, func(r ranking.Ranking) bool { return r != nil }); i >= 0 && k == 0 {
		k = max(slots[i].K(), 1) // a live ranking holds at least one item
	}
	st, ext, ok := gather(len(slots), k, func(ext int) ranking.Ranking { return slots[ext] })
	if !ok { // a slot of another size: name the first that fails the contract
		for i, r := range slots {
			if r != nil {
				if err := ranking.Check(r, k); err != nil {
					return nil, slotError(ranking.ID(i), err)
				}
			}
		}
	}
	return NewMutableFromStore(st, ext, len(slots), k, alg, compactRatio)
}

// NewMutableFromStore builds a Mutable over st, which it takes over: row in
// is the ranking under external ID ext[in], ext ascends below slots, and
// every ID below slots that ext skips is retired. It is NewMutable without
// the slot array (internal/persist loads a snapshot into exactly this), and
// every row passes ranking.Check against k, or st's size without one, in the
// build's first pass; an error names the row's external ID.
func NewMutableFromStore(st *kernel.Store, ext []ranking.ID, slots, k int, alg Algorithm, compactRatio float64) (*Mutable, error) {
	if alg < FilterValidate || alg > ListMerge {
		return nil, fmt.Errorf("topk: unknown algorithm %d", alg)
	}
	if len(ext) != st.Len() {
		return nil, fmt.Errorf("topk: %d external ids for %d rows", len(ext), st.Len())
	}
	if st.Len() > 0 {
		if k == 0 {
			k = max(st.K(), 1) // a live ranking holds at least one item
		}
		if st.K() != k {
			return nil, slotError(ext[0], ranking.Check(st.Slot(0), k))
		}
	}
	m := &Mutable{k: k, alg: alg, compactRatio: compactRatio}
	if err := m.install(st, ext, slots, func(in int, err error) error { return slotError(ext[in], err) }); err != nil {
		return nil, err
	}
	return m, nil
}

func slotError(ext ranking.ID, err error) error { return fmt.Errorf("topk: slot %d: %w", ext, err) }

// install (re)builds the index over st, whose row in is the ranking under
// external id ext[in] of slots ids, with build's rowErr, and points the id
// map at it; on error nothing changes. k survives a rebuild over zero
// survivors.
func (m *Mutable) install(st *kernel.Store, ext []ranking.ID, slots int, rowErr func(int, error) error) error {
	ids, err := newIDMap(ext, slots)
	if err != nil {
		return err
	}
	k := m.k
	if st.Len() > 0 {
		k = st.K()
	}
	inv, err := build(st, rowErr)
	if err != nil {
		return err
	}
	m.ids, m.k, m.inv = ids, k, inv
	m.searchers = &sync.Pool{New: func() any { return NewSearcher(inv) }}
	return nil
}

// Insert copies a ranking into the index and returns its new, stable ID; the
// caller may reuse r afterwards. On an index that has no size yet the first
// successful Insert defines it. The Index takes its size from its rankings,
// and a compaction over zero survivors leaves it none, so the check against
// the size the Mutable keeps comes first.
func (m *Mutable) Insert(r ranking.Ranking) (ranking.ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := ranking.Check(r, m.k); err != nil {
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
// index untouched. A ranking that fails ranking.Check is rejected before the
// id is looked up; an unassigned or deleted id is then ErrUnknownID.
func (m *Mutable) Update(id ranking.ID, r ranking.Ranking) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := ranking.Check(r, m.k); err != nil {
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
	n := len(m.ids.ext2int)
	st, ext, _ := gather(n, m.k, func(ext int) ranking.Ranking {
		if in := m.ids.ext2int[ext]; in >= 0 {
			return m.inv.Ranking(ranking.ID(in))
		}
		return nil
	})
	if err := m.install(st, ext, n, nil); err != nil { // every row passed the check on its way in
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

// K returns the ranking size: the declared one until a live ranking fixes
// it, 0 while an index without a declared size waits for its first Insert.
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
// theta of q, sorted by ID, with exact distances, plus the Footrule
// evaluations this query cost.
func (m *Mutable) SearchTraced(q ranking.Ranking, theta float64) ([]ranking.Result, uint64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := ranking.Check(q, m.k); err != nil {
		return nil, 0, err
	}
	s := m.searchers.Get().(*Searcher)
	ev := metric.New(nil)
	res := s.search(m.alg, q, ranking.RawThreshold(theta, m.k), ev)
	m.searchers.Put(s)
	m.calls.Add(ev.Calls())
	m.ids.remapSearch(res)
	return res, ev.Calls(), nil
}

// Search is SearchTraced without the distance calls.
func (m *Mutable) Search(q ranking.Ranking, theta float64) ([]ranking.Result, error) {
	res, _, err := m.SearchTraced(q, theta)
	return res, err
}

// NearestNeighbors returns the n live rankings closest to q, ordered by
// (distance, external id), from the query's posting lists alone (see
// Searcher.NearestNeighbors): it costs no distance call.
func (m *Mutable) NearestNeighbors(q ranking.Ranking, n int) ([]ranking.Result, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := ranking.Check(q, m.k); err != nil {
		return nil, err
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
	res := s.nearestNeighbors(q, n, ext)
	m.searchers.Put(s)
	m.ids.remapNN(res)
	return res, nil
}
