// Package kernel provides the hardware-speed distance layer shared by every
// backend: a query-compiled Footrule kernel (a one-byte-per-item rank table
// that each Compile clears of the previous query's entries, single
// branch-reduced evaluation pass) and a flat k-strided Store for contiguous
// ranking storage. The scalar reference implementation in
// reference.go is the differential oracle for the compiled and batched paths.
package kernel

import (
	"fmt"

	"topk/internal/ranking"
)

// Store holds a collection of k-length rankings in one contiguous backing
// array, k-strided: slot i occupies flat[i*k : (i+1)*k]. A single allocation
// replaces n per-ranking allocations, batched kernels stream it linearly, and
// every store owns its arena: NewStore and Append copy, so nothing a caller
// built or loaded a ranking in (a request buffer, a snapshot, a parsed file)
// is referenced afterwards. The store only grows, and a written slot never
// changes, so a view Slot handed out stays valid after the arena reallocates.
type Store struct {
	k, n int
	flat []ranking.Item
}

// NewStore copies rs into a freshly allocated flat array. All rankings must
// share one length; the caller is expected to have validated the collection
// (every constructor in this repo does), so a mismatch is a programmer error
// and panics.
func NewStore(rs []ranking.Ranking) *Store {
	k := 0
	if len(rs) > 0 {
		k = len(rs[0])
	}
	st := &Store{flat: make([]ranking.Item, 0, len(rs)*k)}
	for _, r := range rs {
		st.Append(r)
	}
	return st
}

// NewStoreFlat adopts flat — the items of len(flat)/k rankings of length k,
// one ranking after another — as the store's arena. The caller hands flat
// over and must not write it afterwards.
func NewStoreFlat(k int, flat []ranking.Item) *Store {
	st := &Store{k: k, flat: flat}
	if k > 0 {
		st.n = len(flat) / k
	}
	return st
}

// Append copies r into the next slot. The first Append on an empty store
// sets its stride; a later ranking of another length is a programmer error
// and panics.
func (st *Store) Append(r ranking.Ranking) {
	if st.n == 0 {
		st.k = len(r)
	} else if len(r) != st.k {
		panic(fmt.Sprintf("kernel: ranking %d has length %d, store stride is %d", st.n, len(r), st.k))
	}
	st.flat = append(st.flat, r...)
	st.n++
}

// Len reports the number of slots.
func (st *Store) Len() int { return st.n }

// K reports the stride (ranking length).
func (st *Store) K() int { return st.k }

// Slot returns the ranking stored at id as a view into the flat array, its
// capacity clamped to the stride: appending to the view copies out instead
// of writing into the next slot.
func (st *Store) Slot(id ranking.ID) ranking.Ranking {
	lo := int(id) * st.k
	return st.flat[lo : lo+st.k : lo+st.k]
}

// Flat exposes the raw backing array (read-only by convention); batched
// kernels and posting packers iterate it directly.
func (st *Store) Flat() []ranking.Item { return st.flat }
