package invindex

import (
	"fmt"
	"slices"

	"topk/internal/ranking"
)

// Insert copies a ranking into the index's store and appends its postings to
// the index, returning the new ranking's id; the caller may reuse r
// afterwards. The first Insert into an empty index sets the ranking size.
// Because ids are assigned in insertion order, every posting list stays
// id-sorted, and every query algorithm answers over the grown lists without
// rebuilding. A posting goes into its list's reserved room; a full list first
// moves to the arena end with doubled room. An insert that would take the
// arenas past arenaLimit postings is refused before anything changes.
// Searchers created before the insert stay valid — they grow their gain
// accumulator to the new collection size on their next query — but Insert
// must not run concurrently with queries (Mutable serializes them with an
// RWMutex).
func (idx *Index) Insert(r ranking.Ranking) (ranking.ID, error) {
	if idx.Len() > 0 && r.K() != idx.K() {
		return 0, fmt.Errorf("invindex: inserted ranking has size %d, want %d: %w",
			r.K(), idx.K(), ranking.ErrSizeMismatch)
	}
	if r.K() > ranking.MaxK {
		return 0, fmt.Errorf("invindex: k=%d exceeds the uint8 rank range", r.K())
	}
	if err := r.Validate(); err != nil {
		return 0, err
	}
	grow := uint64(0)
	for _, item := range r {
		if s := idx.lookup(item); s.n == s.cap {
			grow += uint64(moved(s.cap))
		}
	}
	if uint64(len(idx.ids))+grow > arenaLimit {
		return 0, fmt.Errorf("invindex: insert would take the posting arenas past %d postings", arenaLimit)
	}
	id := ranking.ID(idx.Len())
	idx.store.Append(r)
	if idx.deleted != nil {
		idx.deleted = append(idx.deleted, false)
	}
	for rank, item := range r {
		s := idx.slot(item)
		if s.n == 0 {
			idx.numLists++
		}
		if s.n == s.cap {
			idx.relocate(s)
		}
		idx.ids[s.off+s.n], idx.ranks[s.off+s.n] = id, uint8(rank)
		s.n++
	}
	if idx.garbage > len(idx.store.Flat()) {
		idx.repack()
	}
	return id, nil
}

// moved returns the room a full list of room c gets when it moves.
func moved(c uint32) uint32 { return max(2*c, 1) }

// relocate moves the full list at s to the arena end with twice its room.
func (idx *Index) relocate(s *span) {
	end, c := len(idx.ids), moved(s.cap)
	idx.ids = slices.Grow(idx.ids, int(c))[:end+int(c)]
	idx.ranks = slices.Grow(idx.ranks, int(c))[:end+int(c)]
	copy(idx.ids[end:], idx.ids[s.off:s.off+s.n])
	copy(idx.ranks[end:], idx.ranks[s.off:s.off+s.n])
	idx.garbage += int(s.cap)
	s.off, s.cap = uint32(end), c
}

// repack copies every list, with its room, into fresh arenas that hold no
// abandoned slot. Every abandoned slot was left by a list that had doubled
// since its last move, or by a list's first move out of its tight build-time
// span, so re-packing once they outnumber the postings costs O(1) amortized
// per inserted posting.
func (idx *Index) repack() {
	ids := make([]ranking.ID, len(idx.ids)-idx.garbage)
	ranks := make([]uint8, len(ids))
	off := uint32(0)
	idx.eachSpan(func(_ ranking.Item, s *span) {
		copy(ids[off:], idx.ids[s.off:s.off+s.n])
		copy(ranks[off:], idx.ranks[s.off:s.off+s.n])
		s.off = off
		off += s.cap
	})
	idx.ids, idx.ranks, idx.garbage = ids, ranks, 0
}

// Delete tombstones the ranking with the given id: its postings stay in the
// lists but every query algorithm skips it from then on. Deleting an unknown
// or already-deleted id is an error. Like Insert, Delete must not run
// concurrently with queries; Mutable serializes them, tracks the tombstone
// ratio, and rebuilds the index (compaction) when it grows too large.
func (idx *Index) Delete(id ranking.ID) error {
	if int(id) >= idx.Len() {
		return fmt.Errorf("invindex: delete of unknown id %d (n=%d)", id, idx.Len())
	}
	if idx.deleted == nil {
		idx.deleted = make([]bool, idx.Len())
	}
	if idx.deleted[id] {
		return fmt.Errorf("invindex: id %d already deleted", id)
	}
	idx.deleted[id] = true
	idx.dead++
	return nil
}
