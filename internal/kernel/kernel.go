package kernel

import (
	"fmt"

	"topk/internal/ranking"
)

// MaxDenseItems caps the size of the rank table. Item values below the cap
// (every generator in this repo, and any realistically dense dictionary) are
// found by one byte load, no hashing. A query item at or above the cap goes
// to a short side list instead, so one adversarial 4-billion-valued item
// cannot force a 4 GiB allocation. 1<<21 items costs 2 MiB of table per
// kernel, and kernels are pooled per searcher, not per query.
const MaxDenseItems = 1 << 21

// Kernel is a query-compiled Footrule evaluator implementing the rank-table
// formulation of Fagin, Kumar and Sivakumar: with pq(x) the query rank of a
// matched item, pt(x) its candidate rank, m the match count and
// totalQSum = k(k-1)/2,
//
//	F(q,tau) = sum_matched |pq-pt| + sum_unmatched (k-pt)
//	         + (k-m)*k - (totalQSum - matchedQSum)
//
// Compile builds the query-side lookup once; Distance then evaluates each
// candidate in a single pass that folds the matched-rank-sum correction into
// the same loop (no second probe sweep). The table is cleared by the query
// that wrote it: Compile zeroes the k entries the previous query set, so
// compilation is O(k) after the first query.
type Kernel struct {
	k         int
	totalQSum int
	// tab[it] is 1 + the query rank of item it, 0 if the query lacks it.
	// It covers the query's items below MaxDenseItems.
	tab []uint8
	// q is the compiled query; far holds the positions of its items at or
	// past MaxDenseItems, which the table does not cover.
	q   []ranking.Item
	far []uint8
}

// New returns an empty kernel; Compile must be called before Distance.
func New() *Kernel { return &Kernel{} }

// Compile builds the rank lookup for q, which must hold at most ranking.MaxK
// distinct items (every index in this repo rejects larger k); a longer q
// panics. The kernel holds no reference to q afterwards.
func (kn *Kernel) Compile(q ranking.Ranking) {
	k := len(q)
	if k > ranking.MaxK {
		panic(fmt.Sprintf("kernel: query of %d items exceeds the uint8 rank range", k))
	}
	tab := kn.tab
	for _, it := range kn.q {
		if uint(it) < uint(len(tab)) {
			tab[it] = 0
		}
	}
	kn.k = k
	kn.totalQSum = k * (k - 1) / 2
	kn.q = append(kn.q[:0], q...)
	kn.far = kn.far[:0]
	for pq, it := range q {
		if uint(it) >= uint(len(tab)) {
			if it >= MaxDenseItems {
				kn.far = append(kn.far, uint8(pq))
				continue
			}
			// Grow with headroom so successive queries over one dataset
			// settle after a few compilations.
			need := int(it) + 1
			tab = append(tab, make([]uint8, min(need+need/2, MaxDenseItems)-len(tab))...)
			kn.tab = tab
		}
		tab[it] = uint8(pq + 1)
	}
}

// Distance evaluates the compiled query against tau. tau must have the same
// length as the compiled query (all callers validate ranking lengths at
// ingest). One pass, no allocation.
func (kn *Kernel) Distance(tau ranking.Ranking) int {
	k, tab := kn.k, kn.tab
	d, matched, mqs := 0, 0, 0
	for pt, it := range tau {
		r := 0
		if uint(it) < uint(len(tab)) {
			r = int(tab[it])
		} else {
			for _, pq := range kn.far {
				if kn.q[pq] == it {
					r = int(pq) + 1
					break
				}
			}
		}
		if r != 0 {
			pq := r - 1
			delta := pq - pt
			if delta < 0 {
				delta = -delta
			}
			d += delta
			matched++
			mqs += pq
		} else {
			d += k - pt
		}
	}
	return d + (k-matched)*k - (kn.totalQSum - mqs)
}

// FootruleMany validates a whole candidate buffer against contiguous slot
// storage: out[i] = Footrule(compiled query, st.Slot(ids[i])). out is
// appended to and returned, so callers can reuse a pooled buffer. The store's
// stride must match the compiled query's length.
func (kn *Kernel) FootruleMany(st *Store, ids []ranking.ID, out []int) []int {
	k := st.k
	flat := st.flat
	for _, id := range ids {
		lo := int(id) * k
		out = append(out, kn.Distance(flat[lo:lo+k:lo+k]))
	}
	return out
}
