// Mutation support for the dynamic index kinds: Delete, Update and
// tombstone compaction.
//
// The paper's structures assume a static collection, but its distance model
// (Fagin et al.'s top-k lists) makes mutations natural: an updated ranking
// is just a new list under the same ID, so delete + re-insert gives exact
// update semantics without touching the distance machinery. The facade
// implements that on top of two primitives of the inner indexes — append-only
// Insert and tombstoning Delete — plus an id indirection:
//
//   - External IDs (the ones Insert returns and Search reports) are stable
//     for the lifetime of a ranking: Update keeps the ID, Delete retires it
//     forever, and compaction never renumbers.
//   - Internal IDs are the inner index's dense, append-only id space. An
//     Update tombstones the old internal slot and appends a fresh one; both
//     keep mapping to the same external ID.
//
// Tombstoned slots still occupy postings (inverted index) or tree nodes
// (coarse partitions). Once their fraction of the inner id space crosses the
// compaction ratio, the facade rebuilds the inner index over the survivors
// in place — under the same write lock that serializes every mutation, so
// concurrent Searches simply observe the index before or after. External
// IDs are preserved across the rebuild.
package topk

import (
	"errors"
	"fmt"
	"slices"

	"topk/internal/coarse"
	"topk/internal/invindex"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// ErrUnknownID is returned by Delete and Update for an external ID that was
// never assigned or has already been deleted.
var ErrUnknownID = errors.New("topk: unknown ranking id")

// DefaultCompactionRatio is the tombstone fraction of the inner id space
// above which a mutable index rebuilds itself. See WithCompactionRatio and
// WithCoarseCompactionRatio.
const DefaultCompactionRatio = 0.25

// MutableIndex is the interface of index kinds that support full collection
// mutation. InvertedIndex, CoarseIndex and HybridIndex implement it; so
// does the sharded wrapper in internal/shard when built over mutable
// sub-indices.
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

var (
	_ MutableIndex = (*InvertedIndex)(nil)
	_ MutableIndex = (*CoarseIndex)(nil)
)

// idmap is the external↔internal id indirection of a mutable index. It is
// guarded by the owning facade's RWMutex (read paths remap under RLock,
// mutations rewrite under Lock).
type idmap struct {
	// ext2int maps an external id to its current internal id, -1 once
	// deleted. Grows by one per Insert, never shrinks.
	ext2int []int32
	// int2ext maps an internal id back to its external id. Entries of
	// tombstoned internal ids are stale but never read: inner searches
	// filter tombstones before the facade remaps.
	int2ext []ID
	live    int
	// identity: no mutation ever diverged the two id spaces — remapping is
	// a no-op. inOrder: int2ext is ascending, so id-sorted inner results
	// stay sorted after remapping (broken by the first Update, restored by
	// compaction).
	identity bool
	inOrder  bool
}

// newIdentityIDMap covers a freshly built index: external = internal.
func newIdentityIDMap(n int) idmap {
	m := idmap{
		ext2int:  make([]int32, n),
		int2ext:  make([]ID, n),
		live:     n,
		identity: true,
		inOrder:  true,
	}
	for i := 0; i < n; i++ {
		m.ext2int[i] = int32(i)
		m.int2ext[i] = ID(i)
	}
	return m
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

// slots materializes the external-id slot view: slots[ext] is the live
// ranking under ext, nil for retired ids. This is the unit of snapshot v2
// (internal/persist) and of the FromSlots constructors.
func (m *idmap) slots(get func(ID) Ranking) []Ranking {
	out := make([]Ranking, len(m.ext2int))
	for ext, v := range m.ext2int {
		if v >= 0 {
			out[ext] = get(ID(v))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// InvertedIndex mutations
// ---------------------------------------------------------------------------

// Delete removes the ranking with the given ID from the inverted index by
// tombstoning it; its postings are skipped by every query algorithm until
// the next compaction purges them. Delete briefly excludes concurrent
// Search calls, exactly like Insert.
func (ii *InvertedIndex) Delete(id ID) error {
	ii.mu.Lock()
	defer ii.mu.Unlock()
	intID, err := ii.ids.lookup(id)
	if err != nil {
		return err
	}
	if err := ii.idx.Delete(intID); err != nil {
		return err
	}
	ii.ids.delete(id)
	ii.maybeCompactLocked()
	return nil
}

// Update replaces the ranking stored under id, keeping the ID stable: the
// old version is tombstoned and the new one appended to the inner index,
// both mapped to the same external ID (delete + re-insert, the exact update
// semantics of the Fagin et al. list model).
func (ii *InvertedIndex) Update(id ID, r Ranking) error {
	ii.mu.Lock()
	defer ii.mu.Unlock()
	if r.K() != ii.k {
		return fmt.Errorf("topk: updated ranking has size %d, want %d: %w",
			r.K(), ii.k, ranking.ErrSizeMismatch)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	intID, err := ii.ids.lookup(id)
	if err != nil {
		return err
	}
	if err := ii.idx.Delete(intID); err != nil {
		return err
	}
	newInt, err := ii.idx.Insert(r)
	if err != nil {
		// Unreachable after the validation above; retire the id rather than
		// leave it pointing at a tombstone.
		ii.ids.delete(id)
		return err
	}
	ii.ids.reassign(id, newInt)
	ii.maybeCompactLocked()
	return nil
}

// Compact rebuilds the inverted index over the surviving rankings,
// discarding all tombstoned postings. External IDs are preserved. Compact
// runs automatically once the tombstone fraction of the inner id space
// exceeds the compaction ratio; calling it explicitly is only needed to
// reclaim memory eagerly.
func (ii *InvertedIndex) Compact() error {
	ii.mu.Lock()
	defer ii.mu.Unlock()
	return ii.compactLocked()
}

// Tombstones reports how many tombstoned rankings are awaiting compaction.
func (ii *InvertedIndex) Tombstones() int {
	ii.mu.RLock()
	defer ii.mu.RUnlock()
	return ii.idx.Dead()
}

// Slots returns the external-id slot view of the collection: slots[id] is
// the live ranking under id, nil for deleted ids. Feed it to
// persist.WritePagedTo for a snapshot and to NewInvertedIndexFromSlots
// to restore.
func (ii *InvertedIndex) Slots() []Ranking {
	ii.mu.RLock()
	defer ii.mu.RUnlock()
	return ii.ids.slots(ii.idx.Ranking)
}

func (ii *InvertedIndex) maybeCompactLocked() {
	if ii.compactRatio <= 0 {
		return
	}
	if n := ii.idx.Len(); n > 0 && float64(ii.idx.Dead()) > ii.compactRatio*float64(n) {
		ii.compactLocked()
	}
}

func (ii *InvertedIndex) compactLocked() error {
	m, live := newSlotsIDMap(ii.ids.slots(ii.idx.Ranking))
	idx, err := invindex.New(live)
	if err != nil {
		return err
	}
	ii.idx, ii.pool, ii.ids = idx, invindex.NewPool(idx), m
	return nil
}

// ---------------------------------------------------------------------------
// CoarseIndex mutations
// ---------------------------------------------------------------------------

// Delete removes the ranking with the given ID from the coarse index by
// tombstoning it. The ranking stays in its partition's BK-tree as a routing
// object (and a deleted medoid keeps governing its partition — its distances
// remain valid pivots), but queries no longer return it; the next compaction
// rebuilds the partitioning over the survivors.
func (c *CoarseIndex) Delete(id ID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	intID, err := c.ids.lookup(id)
	if err != nil {
		return err
	}
	if err := c.idx.Delete(intID); err != nil {
		return err
	}
	c.ids.delete(id)
	c.maybeCompactLocked()
	return nil
}

// Update replaces the ranking stored under id, keeping the ID stable. The
// old version is tombstoned in its partition and the new one inserted along
// the regular partition-joining path (Section 4.1 semantics), both mapped to
// the same external ID.
func (c *CoarseIndex) Update(id ID, r Ranking) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.K() != c.k {
		return fmt.Errorf("topk: updated ranking has size %d, want %d: %w",
			r.K(), c.k, ranking.ErrSizeMismatch)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	intID, err := c.ids.lookup(id)
	if err != nil {
		return err
	}
	if err := c.idx.Delete(intID); err != nil {
		return err
	}
	newInt, err := c.idx.Insert(r, metric.New(nil))
	if err != nil {
		c.ids.delete(id)
		return err
	}
	c.ids.reassign(id, newInt)
	c.maybeCompactLocked()
	return nil
}

// Compact rebuilds the coarse index — clustering, medoid inverted index and
// partition trees — over the surviving rankings, discarding all tombstones.
// External IDs are preserved. Runs automatically once the tombstone fraction
// exceeds the compaction ratio.
func (c *CoarseIndex) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked()
}

// Tombstones reports how many tombstoned rankings are awaiting compaction.
func (c *CoarseIndex) Tombstones() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.Dead()
}

// Slots returns the external-id slot view of the collection: slots[id] is
// the live ranking under id, nil for deleted ids. Feed it to
// persist.WritePagedTo for a snapshot and to NewCoarseIndexFromSlots to
// restore.
func (c *CoarseIndex) Slots() []Ranking {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ids.slots(c.idx.Ranking)
}

func (c *CoarseIndex) maybeCompactLocked() {
	if c.compactRatio <= 0 {
		return
	}
	if n := c.idx.Len(); n > 0 && float64(c.idx.Dead()) > c.compactRatio*float64(n) {
		c.compactLocked()
	}
}

func (c *CoarseIndex) compactLocked() error {
	m, live := newSlotsIDMap(c.ids.slots(c.idx.Ranking))
	idx, err := coarse.New(live, ranking.RawThreshold(c.thetaC, c.k), c.copts)
	if err != nil {
		return err
	}
	c.idx, c.pool, c.ids = idx, coarse.NewPool(idx), m
	return nil
}
