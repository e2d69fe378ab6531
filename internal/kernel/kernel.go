package kernel

import (
	"slices"

	"topk/internal/ranking"
)

// MaxDenseItems caps the size of the dense rank table. Item values below the
// cap (every generator in this repo, and any realistically dense dictionary)
// take the dense path: two flat-array loads per probe, no hashing. A query
// containing an item at or above the cap flips the kernel into a sparse mode
// (sorted query items + binary search) so one adversarial 4-billion-valued
// item cannot force a 16 GiB allocation. 1<<21 items costs 16 MiB of tables
// per kernel, and kernels are pooled per searcher, not per query.
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
// the same loop (no second probe sweep). The dense table is
// generation-stamped: recompiling bumps gen instead of clearing, so
// compilation is O(k) after the first query.
type Kernel struct {
	k         int
	totalQSum int
	limit     uint32 // dense probe bound: items >= limit are unmatched

	// Dense mode: rank[it] is valid iff stamp[it] == gen.
	rank  []int32
	stamp []uint32
	gen   uint32

	// Sparse fallback (query contains an item >= MaxDenseItems):
	// qItems sorted ascending, qRanks aligned.
	sparse bool
	qItems []ranking.Item
	qRanks []int32
}

// New returns an empty kernel; Compile must be called before Distance.
func New() *Kernel { return &Kernel{} }

// K reports the length of the currently compiled query (0 before Compile).
func (kn *Kernel) K() int { return kn.k }

// Compile builds the rank lookup for q. The kernel holds no reference to q
// afterwards.
func (kn *Kernel) Compile(q ranking.Ranking) {
	k := len(q)
	kn.k = k
	kn.totalQSum = k * (k - 1) / 2
	maxItem := ranking.Item(0)
	for _, it := range q {
		if it > maxItem {
			maxItem = it
		}
	}
	if maxItem >= MaxDenseItems {
		kn.compileSparse(q)
		return
	}
	kn.sparse = false
	need := int(maxItem) + 1
	if need > len(kn.rank) {
		// Grow with headroom so successive queries over one dataset settle
		// after a few compilations.
		grow := need + need/2
		kn.rank = make([]int32, grow)
		kn.stamp = make([]uint32, grow)
		kn.gen = 0
	}
	kn.gen++
	if kn.gen == 0 { // uint32 wrap: stale stamps could alias, hard reset
		clear(kn.stamp)
		kn.gen = 1
	}
	for pq, it := range q {
		kn.rank[it] = int32(pq)
		kn.stamp[it] = kn.gen
	}
	kn.limit = uint32(need)
}

func (kn *Kernel) compileSparse(q ranking.Ranking) {
	kn.sparse = true
	kn.limit = 0
	kn.qItems = append(kn.qItems[:0], q...)
	slices.Sort(kn.qItems)
	kn.qRanks = kn.qRanks[:0]
	for _, it := range kn.qItems {
		pq, _ := q.Rank(it) // q items are distinct (validated), so always found
		kn.qRanks = append(kn.qRanks, int32(pq))
	}
}

// Distance evaluates the compiled query against tau. tau must have the same
// length as the compiled query (all callers validate ranking lengths at
// ingest). One pass, no allocation.
func (kn *Kernel) Distance(tau ranking.Ranking) int {
	if kn.sparse {
		return kn.distSparse(tau)
	}
	return kn.distDense(tau)
}

// distDense is the dense-mode evaluation pass: one stamped probe per
// candidate position, matched-rank-sum correction folded into the same loop.
func (kn *Kernel) distDense(tau ranking.Ranking) int {
	k, limit, gen := kn.k, kn.limit, kn.gen
	rank, stamp := kn.rank, kn.stamp
	d, matched, mqs := 0, 0, 0
	for pt, it := range tau {
		if uint32(it) < limit && stamp[it] == gen {
			pq := int(rank[it])
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

func (kn *Kernel) distSparse(tau ranking.Ranking) int {
	k, items, ranks := kn.k, kn.qItems, kn.qRanks
	d, matched, mqs := 0, 0, 0
	for pt, it := range tau {
		lo, hi := 0, len(items)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if items[mid] < it {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(items) && items[lo] == it {
			pq := int(ranks[lo])
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
