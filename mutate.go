// Mutation support for the dynamic index kinds: Insert, Delete, Update and
// tombstone compaction.
//
// The paper's structures assume a static collection, but its distance model
// (Fagin et al.'s top-k lists) makes mutations natural: an updated ranking
// is just a new list under the same ID, so delete + re-insert gives exact
// update semantics without touching the distance machinery. That idea is
// written down once, in mutable, on top of two primitives of the inverted
// index — append-only Insert and tombstoning Delete — plus an id indirection:
//
//   - External IDs (the ones Insert returns and Search reports) are stable
//     for the lifetime of a ranking: Update keeps the ID, Delete retires it
//     forever, and compaction never renumbers.
//   - Internal IDs are the inverted index's dense, append-only id space. An
//     Update appends a fresh internal slot and tombstones the old one; both
//     keep mapping to the same external ID.
//   - The ranking size k is fixed by the collection, or — for an index built
//     over zero live rankings — by the first Insert that succeeds.
//
// InvertedIndex — and with it HybridIndex, which embeds one — embeds that
// mutation half. The paper baselines — CoarseIndex, BlockedIndex and the
// metric trees — are static. Tombstoned slots still occupy postings. Once
// their fraction of the internal id space crosses the compaction ratio, the
// index is rebuilt over the survivors in place — under the same write lock
// that serializes every mutation, so concurrent Searches simply observe the
// index before or after, and every answer is the same on both sides. External IDs are preserved across the
// rebuild; the rebuild count and wall time are the index's RebuildStats.
package topk

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"topk/internal/invindex"
	"topk/internal/ranking"
)

// ErrUnknownID is returned by Delete and Update for an external ID that was
// never assigned or has already been deleted.
var ErrUnknownID = errors.New("topk: unknown ranking id")

// DefaultCompactionRatio is the tombstone fraction of the internal id space
// above which a mutable index rebuilds itself. See WithCompactionRatio.
const DefaultCompactionRatio = 0.25

// MutableIndex is the interface of index kinds that support full collection
// mutation. InvertedIndex and HybridIndex implement it; so does the sharded
// wrapper in internal/shard, whose sub-indices they are.
type MutableIndex interface {
	Index
	// Insert adds a ranking and returns its new, stable ID.
	Insert(r Ranking) (ID, error)
	// Delete removes the ranking with the given ID. The ID is retired and
	// never reused. Returns ErrUnknownID for unassigned or deleted IDs.
	Delete(id ID) error
	// Update replaces the ranking stored under an existing ID, keeping the
	// ID stable. Returns ErrUnknownID for unassigned or deleted IDs.
	Update(id ID, r Ranking) error
}

var _ MutableIndex = (*InvertedIndex)(nil)

// idmap is the external↔internal id indirection of a mutable index. It is
// guarded by the owning index's RWMutex (read paths remap under RLock,
// mutations rewrite under Lock).
type idmap struct {
	// ext2int maps an external id to its current internal id, -1 once
	// deleted. Grows by one per Insert, never shrinks.
	ext2int []int32
	// int2ext maps an internal id back to its external id. Entries of
	// tombstoned internal ids are stale but never read: backend searches
	// filter tombstones before the query half remaps.
	int2ext []ID
	live    int
	// identity: no mutation ever diverged the two id spaces — remapping is
	// a no-op. inOrder: int2ext is ascending, so id-sorted internal results
	// stay sorted after remapping (broken by the first Update, restored by
	// compaction).
	identity bool
	inOrder  bool
}

// newSlotsIDMap covers an index restored from an external-id slot array
// (nil = tombstoned slot) and returns the live rankings in external order.
func newSlotsIDMap(slots []Ranking) (idmap, []Ranking) {
	live := make([]Ranking, 0, len(slots))
	m := idmap{
		ext2int:  make([]int32, len(slots)),
		identity: true,
		inOrder:  true,
	}
	for ext, r := range slots {
		if r == nil {
			m.ext2int[ext] = -1
			m.identity = false
			continue
		}
		if ext != len(live) {
			m.identity = false
		}
		m.ext2int[ext] = int32(len(live))
		m.int2ext = append(m.int2ext, ID(ext))
		live = append(live, r)
	}
	m.live = len(live)
	return m, live
}

// lookup resolves an external id to its internal id.
func (m *idmap) lookup(ext ID) (ID, error) {
	if int(ext) >= len(m.ext2int) || m.ext2int[ext] < 0 {
		return 0, fmt.Errorf("%w: %d", ErrUnknownID, ext)
	}
	return ID(m.ext2int[ext]), nil
}

// insert records a fresh internal id and assigns it the next external id.
func (m *idmap) insert(intID ID) ID {
	ext := ID(len(m.ext2int))
	m.ext2int = append(m.ext2int, int32(intID))
	m.int2ext = append(m.int2ext, ext)
	m.live++
	return ext
}

// delete retires an external id.
func (m *idmap) delete(ext ID) {
	m.ext2int[ext] = -1
	m.live--
	m.identity = false
}

// reassign points an existing external id at a fresh internal id (Update).
func (m *idmap) reassign(ext, intID ID) {
	m.ext2int[ext] = int32(intID)
	m.int2ext = append(m.int2ext, ext)
	m.identity = false
	m.inOrder = false
}

// remapSearch rewrites internal result ids to external ones in place and
// restores the id-sorted order Search guarantees.
func (m *idmap) remapSearch(res []Result) {
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
// restores the (distance, id) order NearestNeighbors guarantees.
func (m *idmap) remapNN(res []Result) {
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

// ---------------------------------------------------------------------------
// The mutation half of InvertedIndex
// ---------------------------------------------------------------------------

// mutable is the one mutation state machine of the package — the mutation
// half of InvertedIndex: the id indirection, the ranking size with its "first
// insert defines k" rule, and Insert / Delete / Update over the inverted index
// it maintains, behind the RWMutex that serializes writers against concurrent
// searches, plus synchronous tombstone compaction. rebuild also installs the
// backend the query half (queryHalf, engine.go) answers from.
type mutable struct {
	// mu is write-held by mutations (Insert/Delete/Update/Compact) only;
	// Search proceeds concurrently under the read lock, drawing its scratch
	// state from the kind's pool.
	mu  sync.RWMutex
	ids idmap
	// k is the ranking size; 0 while an index built over zero live rankings
	// (an all-tombstone snapshot shard) waits for its first insert.
	k int
	// inv is the inverted index over the internal id space: append-only
	// Insert, tombstoning Delete.
	inv *invindex.Index
	// compactRatio is the tombstone fraction of the internal id space above
	// which mutations trigger an automatic rebuild; ≤ 0 disables it.
	compactRatio float64
	// rebuild constructs the inverted index over a dense collection, installs
	// its backend adapter (index plus searcher pool) in the query half, and
	// returns it.
	rebuild func(live []Ranking) (*invindex.Index, error)

	// Compactions so far, with their cumulative and most recent wall time.
	rebuilds, rebuildNanos, lastRebuildNanos atomic.Uint64
}

// checkRanking validates a mutation payload and returns the ranking size the
// index has once the mutation commits: its own, or — with no size defined and
// nothing live — the payload's.
func (m *mutable) checkRanking(r Ranking, verb string) (int, error) {
	k := m.k
	if k == 0 && m.ids.live == 0 {
		k = r.K()
	}
	if r.K() != k {
		return 0, fmt.Errorf("topk: %s ranking has size %d, want %d: %w",
			verb, r.K(), k, ranking.ErrSizeMismatch)
	}
	return k, r.Validate()
}

func (m *mutable) insert(r Ranking) (ID, error) {
	k, err := m.checkRanking(r, "inserted")
	if err != nil {
		return 0, err
	}
	intID, err := m.inv.Insert(r)
	if err != nil {
		return 0, err
	}
	// Committed only now: a rejected first insert must not define the size.
	m.k = k
	return m.ids.insert(intID), nil
}

func (m *mutable) delete(ext ID) error {
	intID, err := m.ids.lookup(ext)
	if err != nil {
		return err
	}
	if err := m.inv.Delete(intID); err != nil {
		return err
	}
	m.ids.delete(ext)
	return nil
}

// update appends the new version before it tombstones the old one, so a
// rejected ranking leaves the index untouched; both internal slots map to the
// same external id.
func (m *mutable) update(ext ID, r Ranking) error {
	if _, err := m.checkRanking(r, "updated"); err != nil {
		return err
	}
	old, err := m.ids.lookup(ext)
	if err != nil {
		return err
	}
	newInt, err := m.inv.Insert(r)
	if err != nil {
		return err
	}
	m.ids.reassign(ext, newInt)
	// Cannot fail for a slot lookup just resolved as live.
	return m.inv.Delete(old)
}

// slots materializes the external-id slot view of the collection: slots[ext]
// is the live ranking under ext, nil for retired ids. This is the unit of a
// snapshot (internal/persist) and of the FromSlots constructors.
func (m *mutable) slots() []Ranking {
	out := make([]Ranking, len(m.ids.ext2int))
	for ext, v := range m.ids.ext2int {
		if v >= 0 {
			out[ext] = m.inv.Ranking(ID(v))
		}
	}
	return out
}

// RebuildStats describes the compaction history of a mutable index: how many
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
func (m *mutable) RebuildStats() RebuildStats {
	return RebuildStats{
		Rebuilds:   m.rebuilds.Load(),
		TotalNanos: m.rebuildNanos.Load(),
		LastNanos:  m.lastRebuildNanos.Load(),
	}
}

// Rebuilds reports how many compactions have completed since construction.
func (m *mutable) Rebuilds() uint64 { return m.rebuilds.Load() }

// install (re)builds the inverted index over live and points the id map at
// it; on error nothing changes. k survives a rebuild over zero survivors.
func (m *mutable) install(ids idmap, live []Ranking) error {
	k := m.k
	if len(live) > 0 {
		k = live[0].K()
	}
	inv, err := m.rebuild(live)
	if err != nil {
		return err
	}
	m.ids, m.k, m.inv = ids, k, inv
	return nil
}

// Insert adds a ranking and returns its new, stable ID. On an index built
// over zero live rankings the first successful Insert defines the ranking
// size. Insert excludes concurrent Search calls for its (short) duration;
// pooled searchers grow their scratch state lazily, so they stay valid
// across it.
func (m *mutable) Insert(r Ranking) (ID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.insert(r)
}

// Delete removes the ranking with the given ID by tombstoning it: every
// query skips it until the next compaction purges it. The ID is retired and
// never reused. Returns ErrUnknownID for unassigned or deleted IDs.
func (m *mutable) Delete(id ID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.delete(id); err != nil {
		return err
	}
	m.maybeCompactLocked()
	return nil
}

// Update replaces the ranking stored under id, keeping the ID stable: the
// new version is appended to the inverted index and the old one tombstoned, both
// mapped to the same external ID (delete + re-insert, the exact update
// semantics of the Fagin et al. list model). Returns ErrUnknownID for
// unassigned or deleted IDs.
func (m *mutable) Update(id ID, r Ranking) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.update(id, r); err != nil {
		return err
	}
	m.maybeCompactLocked()
	return nil
}

// Compact rebuilds the index over the surviving rankings, discarding all
// tombstones. External IDs are preserved. Compact runs automatically once
// the tombstone fraction of the internal id space exceeds the compaction ratio;
// calling it explicitly is only needed to reclaim memory eagerly.
func (m *mutable) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compactLocked()
}

// Tombstones reports how many tombstoned rankings are awaiting compaction.
func (m *mutable) Tombstones() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.inv.Dead()
}

// Slots returns the external-id slot view of the collection: slots[id] is
// the live ranking under id, nil for deleted ids. Feed it to
// persist.WritePagedTo for a snapshot and to the kind's FromSlots
// constructor to restore.
func (m *mutable) Slots() []Ranking {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.slots()
}

// Len implements Index, counting live (non-deleted) rankings.
func (m *mutable) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ids.live
}

// K implements Index. An index built over zero live rankings reports 0
// until the first Insert defines the size.
func (m *mutable) K() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.k
}

func (m *mutable) maybeCompactLocked() {
	if m.compactRatio <= 0 {
		return
	}
	if n := m.inv.Len(); n > 0 && float64(m.inv.Dead()) > m.compactRatio*float64(n) {
		m.compactLocked()
	}
}

func (m *mutable) compactLocked() error {
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
