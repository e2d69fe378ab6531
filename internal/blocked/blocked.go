// Package blocked implements the blocked index-list organization of
// Section 6.3 together with the partial-information distance bounds of
// Section 6.2 (the NRA-style List-at-a-Time processing):
//
// Every index list is sorted by rank value, so the postings of item i at
// rank j form a contiguous block B_{i@j}; a secondary offset table locates
// blocks in O(1). For a query item at query position i, every posting in
// block B_{item@j} contributes at least |i−j| to the Footrule distance, so
// blocks with |i−j| > θ are never read. For candidates seen in some blocks,
// lower and upper distance bounds allow early rejection (L > θ) and early
// acceptance (U ≤ θ), exactly as in the NRA algorithm of Fagin et al.:
//
//	L(τ,q) = Σ_{seen} |q(i)−τ(i)|                            (non-decreasing)
//	U(τ,q) = L + Σ_{unseen τ ranks} (k−r) + Σ_{unmatched q ranks} (k−r)
//	                                                         (non-increasing)
//
// The algorithms here are Blocked+Prune and Blocked+Prune+Drop of the
// evaluation (Figures 8 and 9).
package blocked

import (
	"fmt"
	"sort"

	"topk/internal/invindex"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// list is a rank-sorted posting list with per-rank block offsets. ids is a
// view into the index's single packed arena.
type list struct {
	ids     []ranking.ID // block j = ids[offsets[j]:offsets[j+1]]: the item at rank j, ids ascending
	offsets []int32      // len k+1
}

// Index is the blocked, rank-augmented inverted index. All posting lists
// share one arena, so a build is a handful of large allocations instead of
// one slice per item.
type Index struct {
	k        int
	rankings []ranking.Ranking
	arena    []ranking.ID
	lists    map[ranking.Item]list
}

// maxK is the largest ranking size the searcher's uint32 rank masks hold.
const maxK = 32

// New builds the blocked index over the plain inverted index's id-sorted
// lists (invindex.New, one counting sort), then counting-sorts each list by
// rank into its blocks — the construction overhead the paper attributes to
// this organization. Ids stay ascending inside a block. Rankings longer than
// 32 items are refused: the bounds track ranks in 32-bit masks.
func New(rankings []ranking.Ranking) (*Index, error) {
	inv, err := invindex.New(rankings)
	if err != nil {
		return nil, err
	}
	k := inv.K()
	if k > maxK {
		return nil, fmt.Errorf("blocked: k=%d exceeds the %d-bit rank masks", k, maxK)
	}
	idx := &Index{
		k:        k,
		rankings: inv.Rankings(),
		arena:    make([]ranking.ID, len(rankings)*k),
		lists:    make(map[ranking.Item]list, inv.NumLists()),
	}
	allOffs := make([]int32, inv.NumLists()*(k+1))
	next := make([]int32, k)
	base := 0
	inv.EachList(func(it ranking.Item, ids []ranking.ID, ranks []uint8) {
		blocks := allOffs[: k+1 : k+1]
		allOffs = allOffs[k+1:]
		for _, r := range ranks {
			blocks[r+1]++
		}
		for j := 1; j <= k; j++ {
			blocks[j] += blocks[j-1]
		}
		copy(next, blocks)
		out := idx.arena[base : base+len(ids) : base+len(ids)]
		for j, id := range ids {
			out[next[ranks[j]]] = id
			next[ranks[j]]++
		}
		base += len(ids)
		idx.lists[it] = list{ids: out, offsets: blocks}
	})
	return idx, nil
}

// K returns the ranking size.
func (idx *Index) K() int { return idx.k }

// Len returns the number of indexed rankings.
func (idx *Index) Len() int { return len(idx.rankings) }

// Ranking returns the indexed ranking with the given id.
func (idx *Index) Ranking(id ranking.ID) ranking.Ranking { return idx.rankings[id] }

// Block returns the ids of the rankings holding item at rank j (the block
// B_{item@j}), ascending.
func (idx *Index) Block(item ranking.Item, j int) []ranking.ID {
	l, ok := idx.lists[item]
	if !ok || j < 0 || j >= idx.k {
		return nil
	}
	return l.ids[l.offsets[j]:l.offsets[j+1]]
}

// NumLists returns the number of distinct items.
func (idx *Index) NumLists() int { return len(idx.lists) }

// Searcher carries the per-query candidate bookkeeping: dense arrays
// holding, per candidate, the partial distance and bitmasks of the τ-ranks
// and q-ranks already accounted for. A candidate's state is untouched (zero)
// until a query first reaches it; the ids a query touched stay in cands, and
// the next query resets exactly those. A Searcher serves one query at a
// time: use one per goroutine, or share an index between goroutines through
// a sync.Pool of them (four dense O(n) arrays make this the most expensive
// scratch state of any structure in the library).
type Searcher struct {
	idx     *Index
	partial []int32  // Σ_{seen} |q(i)−τ(i)|
	tauMask []uint32 // bit r set: τ-rank r consumed (k ≤ maxK bits)
	qMask   []uint32 // bit r set: q-rank r matched
	state   []uint8  // candidate lifecycle
	cands   []ranking.ID
	kern    *kernel.Kernel
}

const (
	stateUntouched uint8 = iota
	stateAlive
	stateRejected
)

// NewSearcher creates a searcher bound to idx.
func NewSearcher(idx *Index) *Searcher {
	n := len(idx.rankings)
	return &Searcher{
		idx:     idx,
		partial: make([]int32, n),
		tauMask: make([]uint32, n),
		qMask:   make([]uint32, n),
		state:   make([]uint8, n),
		kern:    kernel.New(),
	}
}

// Mode selects the Blocked variant.
type Mode int

const (
	// Prune is Blocked+Prune: block skipping plus bound-based early
	// rejection on all k lists.
	Prune Mode = iota
	// PruneDrop is Blocked+Prune+Drop: additionally drops whole index lists
	// using the (safe) Lemma 2 overlap bound before scheduling blocks.
	PruneDrop
)

// blockRef schedules one block for processing.
type blockRef struct {
	item    ranking.Item
	qPos    int8
	tauRank int8
	miss    int16 // |qPos − tauRank|, the guaranteed partial contribution
}

// Query answers the range query. ev counts the distance function calls of
// the final validation phase (candidates whose bounds cannot decide), the
// quantity Figure 10 reports for Blocked+Prune+Drop.
func (s *Searcher) Query(q ranking.Ranking, rawTheta int, ev *metric.Evaluator, mode Mode) ([]ranking.Result, error) {
	if s.idx.Len() == 0 {
		return nil, nil
	}
	k := s.idx.k
	if q.K() != k {
		return nil, fmt.Errorf("blocked: query size %d, index size %d: %w",
			q.K(), k, ranking.ErrSizeMismatch)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if ev == nil {
		ev = metric.New(nil)
	}
	if rawTheta < 0 {
		return nil, nil
	}

	positions := s.keptPositions(q, rawTheta, mode)

	// Schedule blocks in increasing guaranteed-miss order (|i−j|), skipping
	// blocks whose miss alone exceeds the threshold: any ranking appearing
	// there has F ≥ |i−j| > θ and cannot be a result.
	var sched []blockRef
	for _, i := range positions {
		l, ok := s.idx.lists[q[i]]
		if !ok {
			continue
		}
		for j := 0; j < k; j++ {
			if abs(i-j) > rawTheta {
				continue
			}
			if l.offsets[j] == l.offsets[j+1] {
				continue // empty block
			}
			sched = append(sched, blockRef{item: q[i], qPos: int8(i), tauRank: int8(j), miss: int16(abs(i - j))})
		}
	}
	sort.Slice(sched, func(a, b int) bool {
		if sched[a].miss != sched[b].miss {
			return sched[a].miss < sched[b].miss
		}
		if sched[a].qPos != sched[b].qPos {
			return sched[a].qPos < sched[b].qPos
		}
		return sched[a].tauRank < sched[b].tauRank
	})

	for _, id := range s.cands {
		s.state[id] = stateUntouched
	}
	s.cands = s.cands[:0]
	theta := int32(rawTheta)
	for _, b := range sched {
		l := s.idx.lists[b.item]
		contrib := int32(b.miss)
		for _, id := range l.ids[l.offsets[b.tauRank]:l.offsets[b.tauRank+1]] {
			if s.state[id] == stateUntouched {
				s.partial[id] = 0
				s.tauMask[id] = 0
				s.qMask[id] = 0
				s.state[id] = stateAlive
				s.cands = append(s.cands, id)
			}
			if s.state[id] == stateRejected {
				continue
			}
			s.partial[id] += contrib
			s.tauMask[id] |= 1 << uint(b.tauRank)
			s.qMask[id] |= 1 << uint(b.qPos)
			// Early rejection: L is monotonically non-decreasing.
			if s.partial[id] > theta {
				s.state[id] = stateRejected
			}
		}
	}

	// Resolution. For each alive candidate compute the final upper bound
	//   U = P + Σ_{unseen τ ranks}(k−r) + Σ_{unmatched q ranks}(k−r).
	// If U ≤ θ the candidate is a result: F ≤ U. Within the scheduled lists
	// its state is complete (a common item in a skipped block alone implies
	// F > θ, contradicting F ≤ U ≤ θ), but under PruneDrop a common item
	// may hide in a dropped list, leaving U an over-estimate; patching the
	// state for the dropped positions restores the exact distance without a
	// full distance call. Candidates with P > θ were pruned in-loop;
	// everything else is decided by the distance function (counted as DFC).
	var out []ranking.Result
	fullMask := uint32(1<<uint(k)) - 1
	dropped := droppedPositions(positions, k)
	// Bound-undecided candidates go through the compiled kernel, one DFC
	// each.
	compiled := false
	for _, id := range s.cands {
		if s.state[id] == stateRejected {
			continue
		}
		u := s.partial[id] + remainder(s.tauMask[id], fullMask, k) + remainder(s.qMask[id], fullMask, k)
		if u <= theta {
			if len(dropped) > 0 {
				u = s.patchDropped(q, id, dropped, fullMask, k)
			}
			out = append(out, ranking.Result{ID: id, Dist: int(u)})
			continue
		}
		if !compiled {
			s.kern.Compile(q)
			compiled = true
		}
		ev.Add(1)
		if d := s.kern.Distance(s.idx.rankings[id]); d <= rawTheta {
			out = append(out, ranking.Result{ID: id, Dist: d})
		}
	}
	ranking.SortResults(out)
	return out, nil
}

// keptPositions returns the query positions whose lists participate. Under
// PruneDrop the ω−1 longest lists are dropped (safe Lemma 2 bound, cf.
// invindex.DropSafe).
func (s *Searcher) keptPositions(q ranking.Ranking, rawTheta int, mode Mode) []int {
	k := len(q)
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	if mode != PruneDrop {
		return all
	}
	omega := ranking.RequiredOverlap(rawTheta, k)
	drop := omega - 1
	if drop <= 0 {
		return all
	}
	if drop >= k {
		drop = k - 1
	}
	sort.Slice(all, func(a, b int) bool {
		la := len(s.idx.lists[q[all[a]]].ids)
		lb := len(s.idx.lists[q[all[b]]].ids)
		if la != lb {
			return la > lb
		}
		return all[a] < all[b]
	})
	kept := all[drop:]
	sort.Ints(kept)
	return kept
}

// droppedPositions returns the query positions absent from kept (which is
// sorted ascending).
func droppedPositions(kept []int, k int) []int {
	if len(kept) == k {
		return nil
	}
	var dropped []int
	j := 0
	for i := 0; i < k; i++ {
		if j < len(kept) && kept[j] == i {
			j++
			continue
		}
		dropped = append(dropped, i)
	}
	return dropped
}

// patchDropped folds the contributions of the dropped query positions into
// the candidate's state and returns the now-exact distance: for every
// dropped position i it probes whether q[i] occurs in the candidate and at
// which rank. The probe is O(k) per dropped list — a partial computation,
// not a full distance call, mirroring the bookkeeping the paper's early
// acceptance avoids.
func (s *Searcher) patchDropped(q ranking.Ranking, id ranking.ID, dropped []int, fullMask uint32, k int) int32 {
	tau := s.idx.rankings[id]
	for _, i := range dropped {
		if j, ok := tau.Rank(q[i]); ok {
			s.partial[id] += int32(abs(i - j))
			s.tauMask[id] |= 1 << uint(j)
			s.qMask[id] |= 1 << uint(i)
		}
	}
	return s.partial[id] + remainder(s.tauMask[id], fullMask, k) + remainder(s.qMask[id], fullMask, k)
}

// remainder computes Σ (k−r) over the ranks r NOT set in mask.
func remainder(mask, fullMask uint32, k int) int32 {
	missing := fullMask &^ mask
	var sum int32
	for missing != 0 {
		r := trailingZeros(missing)
		sum += int32(k - r)
		missing &= missing - 1
	}
	return sum
}

func trailingZeros(x uint32) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Bounds exposes the Section 6.2 bound computation for a single candidate
// given partial information; used by tests and by documentation examples.
// seen maps τ-rank → q-rank for every matched item observed so far.
func Bounds(k int, seen map[int]int) (lower, upper int) {
	var tauMask, qMask uint32
	for tr, qr := range seen {
		lower += abs(tr - qr)
		tauMask |= 1 << uint(tr)
		qMask |= 1 << uint(qr)
	}
	fullMask := uint32(1<<uint(k)) - 1
	upper = lower + int(remainder(tauMask, fullMask, k)) + int(remainder(qMask, fullMask, k))
	return lower, upper
}
