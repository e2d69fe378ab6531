// Package adaptsearch implements the AdaptSearch competitor: the adaptive
// prefix-filtering framework of Wang, Li and Feng ("Can we beat the prefix
// filtering?", SIGMOD 2012), applied to top-k-ranking similarity search the
// way the paper's Section 7 describes — the required prefix length is
// derived from the Footrule overlap bound ω of Lemma 2, and candidate
// verification computes the Footrule distance.
//
// Records are viewed as sets, totally ordered by global item frequency
// (rarest first). The ℓ-prefix scheme of AdaptJoin states that two size-k
// sets with overlap ≥ t share at least ℓ items within their prefixes of
// length k−t+ℓ. The "delta inverted index" materializes, for every sorted
// position j, the postings of items at that position, so the index serves
// every threshold t (prefix of length p = positions 0..p−1) without being
// rebuilt. A per-query cost model walks the schemes ℓ = 1, 2, … and stops
// extending the prefix when the marginal scan cost outweighs the expected
// verification savings, mirroring AdaptJoin's adaptive prefix selection.
package adaptsearch

import (
	"fmt"
	"sort"

	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// Index is the delta inverted index over frequency-sorted records.
type Index struct {
	k        int
	rankings []ranking.Ranking
	// order maps an item to its global frequency rank (0 = rarest). Items
	// never seen during construction order before everything (they can
	// only appear in queries and match nothing).
	order map[ranking.Item]int32
	// sorted[id] holds record id's items ordered by `order`.
	sorted [][]ranking.Item
	// pos[j][item] lists the records whose sorted position j holds item.
	pos []map[ranking.Item][]ranking.ID
	// MaxSchemes caps the adaptive prefix extension (ℓ ≤ MaxSchemes).
	MaxSchemes int
}

// New builds the index.
func New(rankings []ranking.Ranking) (*Index, error) {
	idx := &Index{rankings: rankings, order: make(map[ranking.Item]int32), MaxSchemes: 4}
	if len(rankings) == 0 {
		return idx, nil
	}
	idx.k = max(rankings[0].K(), 1) // a ranking holds at least one item
	if idx.k > ranking.MaxK {
		return nil, fmt.Errorf("adaptsearch: k=%d exceeds the uint8 rank range: %w", idx.k, ranking.ErrSizeMismatch)
	}
	freq := make(map[ranking.Item]int)
	for id, r := range rankings {
		if err := ranking.Check(r, idx.k); err != nil {
			return nil, fmt.Errorf("adaptsearch: ranking %d: %w", id, err)
		}
		for _, it := range r {
			freq[it]++
		}
	}
	// Global order: ascending frequency, ties by item id (deterministic).
	items := make([]ranking.Item, 0, len(freq))
	for it := range freq {
		items = append(items, it)
	}
	sort.Slice(items, func(a, b int) bool {
		fa, fb := freq[items[a]], freq[items[b]]
		if fa != fb {
			return fa < fb
		}
		return items[a] < items[b]
	})
	for rank, it := range items {
		idx.order[it] = int32(rank)
	}
	idx.pos = make([]map[ranking.Item][]ranking.ID, idx.k)
	for j := range idx.pos {
		idx.pos[j] = make(map[ranking.Item][]ranking.ID)
	}
	idx.sorted = make([][]ranking.Item, len(rankings))
	for id, r := range rankings {
		s := make([]ranking.Item, idx.k)
		copy(s, r)
		sort.Slice(s, func(a, b int) bool { return idx.order[s[a]] < idx.order[s[b]] })
		idx.sorted[id] = s
		for j, it := range s {
			idx.pos[j][it] = append(idx.pos[j][it], ranking.ID(id))
		}
	}
	return idx, nil
}

// K returns the ranking size.
func (idx *Index) K() int { return idx.k }

// Len returns the number of indexed rankings.
func (idx *Index) Len() int { return len(idx.rankings) }

// TotalPostings returns the number of postings in the delta index (n·k).
func (idx *Index) TotalPostings() int {
	t := 0
	for _, m := range idx.pos {
		for _, l := range m {
			t += len(l)
		}
	}
	return t
}

// Searcher carries per-goroutine counting state. A zero count marks an id
// the query has not touched; the ids a query touched stay in cands, and the
// next query resets exactly those.
type Searcher struct {
	idx   *Index
	count []uint16 // shared prefix items per candidate
	cands []ranking.ID
	kern  *kernel.Kernel
	// VerifyCostWeight expresses how many posting scans one verification is
	// worth in the adaptive stopping rule; AdaptJoin calibrates this with
	// its cost model, we use the Footrule/merge cost ratio (≈ k).
	VerifyCostWeight float64
}

// NewSearcher creates a searcher bound to idx.
func NewSearcher(idx *Index) *Searcher {
	return &Searcher{
		idx:              idx,
		count:            make([]uint16, len(idx.rankings)),
		kern:             kernel.New(),
		VerifyCostWeight: float64(idx.k),
	}
}

// Query answers the range query (q, rawTheta) exactly. The DFC of the
// validation phase is counted on ev.
func (s *Searcher) Query(q ranking.Ranking, rawTheta int, ev *metric.Evaluator) ([]ranking.Result, error) {
	idx := s.idx
	if idx.Len() == 0 {
		return nil, nil
	}
	k := idx.k
	if err := ranking.Check(q, k); err != nil {
		return nil, err
	}
	if rawTheta < 0 {
		return nil, nil
	}
	omega := ranking.RequiredOverlap(rawTheta, k)
	if omega <= 0 {
		omega = 1 // θ < dmax guarantees overlap ≥ 1; clamp defensively
	}

	// Query items in global frequency order; unseen items are rarest and
	// sort first (they cannot produce candidates but consume prefix slots,
	// exactly like an unseen rare token would).
	qsorted := make([]ranking.Item, k)
	copy(qsorted, q)
	sort.Slice(qsorted, func(a, b int) bool {
		oa, okA := idx.order[qsorted[a]]
		ob, okB := idx.order[qsorted[b]]
		switch {
		case !okA && !okB:
			return qsorted[a] < qsorted[b]
		case !okA:
			return true
		case !okB:
			return false
		default:
			return oa < ob
		}
	})

	maxL := idx.MaxSchemes
	if maxL > omega {
		maxL = omega
	}
	if maxL < 1 {
		maxL = 1
	}

	for _, id := range s.cands {
		s.count[id] = 0
	}
	s.cands = s.cands[:0]
	// Incrementally extend the prefix scheme. At scheme ℓ the prefix length
	// is p = k − ω + ℓ; moving ℓ→ℓ+1 adds query item p and record position
	// p (0-based: index p−1).
	scanned := 0
	ell := 1
	p := k - omega + ell
	if p > k {
		p = k
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			scanned += s.scanList(qsorted[i], j)
		}
	}
	candAt := s.countCandidates(ell)
	for ell < maxL && p < k {
		// Marginal cost of scheme ℓ+1: the new row and column of lists.
		extra := 0
		for j := 0; j <= p; j++ {
			if j < len(idx.pos) {
				extra += len(idx.pos[j][qsorted[p]])
			}
		}
		for i := 0; i < p; i++ {
			extra += len(idx.pos[p][qsorted[i]])
		}
		// Expected saving: moving to ℓ+1 can at best eliminate all current
		// candidates; AdaptJoin's estimator assumes a fractional shrink. We
		// proceed only when even a 50% shrink pays for the extra scans.
		saving := 0.5 * float64(candAt) * s.VerifyCostWeight
		if float64(extra) >= saving {
			break
		}
		// Extend.
		for j := 0; j <= p; j++ {
			scanned += s.scanList(qsorted[p], j)
		}
		for i := 0; i < p; i++ {
			scanned += s.scanList(qsorted[i], p)
		}
		ell++
		p++
		candAt = s.countCandidates(ell)
	}
	_ = scanned

	// Verification: exact Footrule, through the compiled kernel, for every
	// candidate with count ≥ ℓ — one DFC each.
	var out []ranking.Result
	threshold := uint16(ell)
	compiled := false
	for _, id := range s.cands {
		if s.count[id] < threshold {
			continue
		}
		if !compiled {
			s.kern.Compile(q)
			compiled = true
		}
		ev.Add(1)
		if d := s.kern.Distance(idx.rankings[id]); d <= rawTheta {
			out = append(out, ranking.Result{ID: id, Dist: d})
		}
	}
	ranking.SortResults(out)
	return out, nil
}

// scanList adds the postings of item at record-position j to the counts and
// returns the list length.
func (s *Searcher) scanList(item ranking.Item, j int) int {
	if j >= len(s.idx.pos) {
		return 0
	}
	l := s.idx.pos[j][item]
	for _, id := range l {
		if s.count[id] == 0 {
			s.cands = append(s.cands, id)
		}
		s.count[id]++
	}
	return len(l)
}

func (s *Searcher) countCandidates(ell int) int {
	c := 0
	t := uint16(ell)
	for _, id := range s.cands {
		if s.count[id] >= t {
			c++
		}
	}
	return c
}
