// Package kernel provides the hardware-speed distance layer shared by every
// backend: a query-compiled Footrule kernel (dense stamp-versioned rank
// lookup, single branch-reduced evaluation pass) and a flat k-strided Store
// for contiguous ranking storage. The scalar reference implementation in
// reference.go is the differential oracle for the compiled and batched paths.
package kernel

import (
	"fmt"

	"topk/internal/ranking"
)

// Store holds a fixed collection of k-length rankings in one contiguous
// backing array, k-strided: slot i occupies flat[i*k : (i+1)*k]. A single
// allocation replaces n per-ranking allocations, batched kernels stream it
// linearly, and the layout is what an eventual beyond-RAM pager would mmap.
type Store struct {
	k    int
	flat []ranking.Item
	// views are pre-cut subslices of flat, one per slot, each with its
	// capacity clamped to its own stride so an append by a holder of a view
	// copies out of the arena instead of clobbering the next slot.
	//
	// A borrowed store's views alias foreign memory (typically a read-only
	// mapped snapshot) instead: flat stays nil and batched kernels evaluate
	// per view.
	views []ranking.Ranking
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
	st := &Store{
		k:     k,
		flat:  make([]ranking.Item, len(rs)*k),
		views: make([]ranking.Ranking, len(rs)),
	}
	for i, r := range rs {
		if len(r) != k {
			panic(fmt.Sprintf("kernel: ranking %d has length %d, store stride is %d", i, len(r), k))
		}
		lo, hi := i*k, (i+1)*k
		copy(st.flat[lo:hi], r)
		st.views[i] = ranking.Ranking(st.flat[lo:hi:hi])
	}
	return st
}

// NewStoreFromViews wraps existing equal-length rankings — typically
// page-aligned views over a mapped v3 snapshot — as a borrowed Store:
// no arena is allocated and nothing is copied. Each view's capacity is
// clamped to k so an append by any holder copies out rather than writing
// past a slot, exactly as with an owned arena.
func NewStoreFromViews(k int, views []ranking.Ranking) *Store {
	st := &Store{k: k, views: make([]ranking.Ranking, len(views))}
	for i, r := range views {
		if len(r) != k {
			panic(fmt.Sprintf("kernel: ranking %d has length %d, store stride is %d", i, len(r), k))
		}
		st.views[i] = r[:k:k]
	}
	return st
}

// Borrowed reports whether the store views foreign memory instead of
// owning a flat arena.
func (st *Store) Borrowed() bool { return st.flat == nil }

// Len reports the number of slots.
func (st *Store) Len() int { return len(st.views) }

// K reports the stride (ranking length).
func (st *Store) K() int { return st.k }

// Slot returns the ranking stored at id as a capacity-clamped view into the
// flat array. Mutating the view mutates the store; appending copies out.
func (st *Store) Slot(id ranking.ID) ranking.Ranking { return st.views[id] }

// Views returns the per-slot views. The returned slice has its capacity
// clamped, so appending to it (as mutable indexes do when inserts arrive
// after the build) reallocates instead of writing into the store's spine.
func (st *Store) Views() []ranking.Ranking { return st.views[:len(st.views):len(st.views)] }

// Flat exposes the raw backing array (read-only by convention); batched
// kernels and paging code iterate it directly. It is nil for borrowed
// stores, whose slots live in foreign (possibly non-contiguous) memory —
// callers must fall back to Views.
func (st *Store) Flat() []ranking.Item { return st.flat }
