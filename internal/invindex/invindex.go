// Package invindex implements the inverted-index side of the paper:
// rank-augmented inverted indices over top-k rankings and the query
// processing algorithms built on them —
//
//   - F&V       (Filter and Validate, the baseline of Section 4),
//   - F&V+Drop  (Lemma 2: entire index lists are dropped, Section 6.1),
//   - ListMerge (aggregation of the exact distance from the rank-augmented
//     lists alone; threshold-agnostic, Section 7),
//   - Minimal F&V (the per-query oracle lower bound of Section 7),
//
// plus an exact k-nearest-neighbor query (NearestNeighbors). ListMerge and
// NearestNeighbors share one primitive, accumulate: a pass over the query's
// lists, shortest first, that sums, per ranking, the distance gain of every
// shared item. ListMerge reads every list in full and thresholds the
// accumulated distances; NearestNeighbors selects the n smallest, and lets
// accumulate stop admitting new rankings once n of those seen are out of
// reach of any unseen one (the Lemma 2 bound on what the unread lists can
// still add, used as a threshold-algorithm stopping rule). Neither calls the
// distance function, so neither adds to a DFC counter (the paper's Figure 10
// convention).
//
// The package is Footrule-only by construction: list dropping (Lemma 2), the
// accumulated gains and the dmax treatment of zero-overlap rankings all rest
// on Footrule's structure. F&V validation therefore always runs through the
// compiled internal/kernel, and the metric.Evaluator a query receives is its
// DFC counter — one call per validated candidate.
//
// One Index serves all algorithms: its postings are id-sorted and carry the
// rank of the item inside the posting's ranking, so the plain algorithms
// simply ignore the rank. Query processing state (candidate de-duplication
// stamps, the gain accumulator) lives in a Searcher; a Searcher serves one
// query at a time, so use one per goroutine — or draw them from a sync.Pool,
// which is how the topk facade lets any number of goroutines query a shared
// index concurrently.
package invindex

import (
	"cmp"
	"fmt"
	"slices"

	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// Posting records that a ranking contains an item at a given rank.
// Postings within an index list are sorted by ID ascending.
type Posting struct {
	ID   ranking.ID
	Rank uint8 // rank of the item inside the ranking, 0-based (< k ≤ 255)
}

// Index is a rank-augmented inverted index over a collection of same-size
// rankings: for every item, the id-sorted list of rankings containing it,
// together with the item's rank (the "inverted index w/ ranks" of §6.2).
type Index struct {
	k int
	// store holds the build-time collection in one flat k-strided arena;
	// rankings starts as store.Views() (capacity-clamped, so post-build
	// Inserts reallocate the slice header and append fresh rankings without
	// touching the arena). Ids < store.Len() can therefore be validated by
	// the batched kernel against contiguous memory; later ids fall back to
	// per-ranking evaluation.
	store    *kernel.Store
	rankings []ranking.Ranking
	// lists maps every item to its id-sorted postings. At build time the
	// values are capacity-clamped views into one packed arena (see
	// PackPostings), so Insert's append copies a growing list out of the arena
	// instead of clobbering its neighbor.
	lists map[ranking.Item][]Posting
	// deleted marks tombstoned ids; postings of tombstoned rankings remain
	// in the lists until the owner rebuilds the index, and every query
	// algorithm skips them. nil until the first Delete; once allocated it is
	// kept at len(rankings).
	deleted []bool
	dead    int
}

// New indexes the collection. Rankings are copied into a flat k-strided
// arena (see kernel.Store); ids are their positions in the slice.
func New(rankings []ranking.Ranking) (*Index, error) {
	if err := validateAll(rankings); err != nil {
		return nil, err
	}
	return newFromStore(kernel.NewStore(rankings)), nil
}

// NewFromStore indexes an existing flat store without re-copying it. The
// hybrid engine uses this to share one arena across every backend of an
// epoch.
func NewFromStore(st *kernel.Store) (*Index, error) {
	if err := validateAll(st.Views()); err != nil {
		return nil, err
	}
	return newFromStore(st), nil
}

func validateAll(rankings []ranking.Ranking) error {
	if len(rankings) == 0 {
		return nil
	}
	k := rankings[0].K()
	if k > 255 {
		return fmt.Errorf("invindex: k=%d exceeds the uint8 rank range", k)
	}
	for id, r := range rankings {
		if r.K() != k {
			return fmt.Errorf("invindex: ranking %d has size %d, want %d: %w",
				id, r.K(), k, ranking.ErrSizeMismatch)
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("invindex: ranking %d: %w", id, err)
		}
	}
	return nil
}

func newFromStore(st *kernel.Store) *Index {
	idx := &Index{
		k:        st.K(),
		store:    st,
		rankings: st.Views(),
		lists:    make(map[ranking.Item][]Posting),
	}
	if st.Len() == 0 {
		idx.k = 0 // preserve "k set on first Insert" semantics for empty indexes
		return idx
	}
	idx.buildLists()
	return idx
}

// buildLists installs the packed posting lists as capacity-clamped views into
// their arena.
func (idx *Index) buildLists() {
	items, offs, arena := PackPostings(idx.store)
	for i, it := range items {
		idx.lists[it] = arena[offs[i]:offs[i+1]:offs[i+1]]
	}
}

// PackPostings packs the posting lists of the store's rankings into one arena
// by counting sort: one pass counts per-item occurrences, the items are laid
// out in sorted order (a deterministic arena, whatever the map iteration
// order), and a cursor pass scatters {ID,Rank} pairs into their slots. It
// returns the layout in CSR form: the distinct items ascending, and the
// postings of items[i] at arena[offs[i]:offs[i+1]]. Ids are visited in
// ascending order, so every list comes out id-sorted.
func PackPostings(st *kernel.Store) (items []ranking.Item, offs []int, arena []Posting) {
	n, k := st.Len(), st.K()
	// A borrowed store (views over a mapped snapshot) has no contiguous
	// arena; its per-slot views carry identical content, so every pass
	// below works row-wise off rows.
	rows := st.Views()
	counts := make(map[ranking.Item]int, n)
	if flat := st.Flat(); flat != nil {
		for _, it := range flat {
			counts[it]++
		}
	} else {
		for _, row := range rows {
			for _, it := range row {
				counts[it]++
			}
		}
	}
	items = make([]ranking.Item, 0, len(counts))
	for it := range counts {
		items = append(items, it)
	}
	slices.Sort(items)
	offs = make([]int, len(items)+1)
	cursor := make(map[ranking.Item]int, len(items))
	for i, it := range items {
		cursor[it] = offs[i]
		offs[i+1] = offs[i] + counts[it]
	}
	arena = make([]Posting, n*k)
	for id, row := range rows {
		for rank, it := range row {
			c := cursor[it]
			arena[c] = Posting{ID: ranking.ID(id), Rank: uint8(rank)}
			cursor[it] = c + 1
		}
	}
	return items, offs, arena
}

// K returns the ranking size.
func (idx *Index) K() int { return idx.k }

// Len returns the number of indexed rankings, including tombstoned ones
// (it is the size of the id space, not the live count; see Live).
func (idx *Index) Len() int { return len(idx.rankings) }

// Live returns the number of indexed rankings that are not tombstoned.
func (idx *Index) Live() int { return len(idx.rankings) - idx.dead }

// Dead returns the number of tombstoned rankings.
func (idx *Index) Dead() int { return idx.dead }

// Deleted reports whether id is tombstoned.
func (idx *Index) Deleted(id ranking.ID) bool {
	return idx.deleted != nil && int(id) < len(idx.deleted) && idx.deleted[id]
}

// Ranking returns the indexed ranking with the given id.
func (idx *Index) Ranking(id ranking.ID) ranking.Ranking { return idx.rankings[id] }

// Rankings exposes the backing collection (shared, not copied), indexed by
// id: the build-time rankings, then every ranking inserted since — the tail a
// hybrid epoch's adaptsearch sidecar scans as its delta.
func (idx *Index) Rankings() []ranking.Ranking { return idx.rankings }

// List returns the posting list for an item (nil if the item is unseen).
// The returned slice is owned by the index and must not be modified.
func (idx *Index) List(item ranking.Item) []Posting { return idx.lists[item] }

// Store exposes the flat build-time ranking arena (ids < Store().Len();
// rankings inserted after the build live outside it).
func (idx *Index) Store() *kernel.Store { return idx.store }

// NumLists returns the number of distinct items (index lists).
func (idx *Index) NumLists() int { return len(idx.lists) }

// Searcher holds per-goroutine query processing state for an Index.
type Searcher struct {
	idx *Index
	// Generation-stamped visited marks: stamp[id] == gen means id was
	// already collected as a candidate for the current query. Avoids both a
	// per-query map allocation and an O(n) clear.
	stamp []uint32
	gen   uint32
	cands []ranking.ID
	// Compiled distance kernel plus pooled validation scratch: dists and res
	// are reused across queries so validate allocates only the exact-size
	// result slice it hands back.
	kern  *kernel.Kernel
	dists []int
	res   []ranking.Result
	// Per-ranking gain accumulator of accumulate (ListMerge and
	// NearestNeighbors): all zero between queries, allocated on first use
	// (2 bytes per indexed ranking). items is checkQuery's sorted query copy
	// for the duplicate check.
	acc   []uint16
	items []ranking.Item
	// byListLength's position and list-length buffers (k entries each).
	kept []int
	lens []int
	// closed counts the queries whose accumulate closed admission; read by the
	// test that keeps the early-termination path from going dead silently.
	closed int
}

// NewSearcher creates a searcher bound to idx.
func NewSearcher(idx *Index) *Searcher {
	return &Searcher{idx: idx, stamp: make([]uint32, len(idx.rankings)), kern: kernel.New()}
}

// Index returns the underlying index.
func (s *Searcher) Index() *Index { return s.idx }

// nextGen advances the visited generation, clearing stamps lazily. It also
// grows the stamp array when the collection has grown since the searcher was
// created (or last used), so pooled searchers survive Insert without being
// discarded.
func (s *Searcher) nextGen() {
	if n := len(s.idx.rankings); len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.gen++
	if s.gen == 0 { // wrapped: hard reset
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	s.cands = s.cands[:0]
}

// collect adds the ids of a posting list to the candidate set, skipping
// tombstoned rankings. The tombstone branch costs nothing when the index has
// never seen a Delete (dels == nil takes the first loop), and no allocation
// either way: dead ids are rejected before they enter the candidate buffer.
func (s *Searcher) collect(list []Posting) {
	dels := s.idx.deleted
	if dels == nil {
		for _, p := range list {
			if s.stamp[p.ID] != s.gen {
				s.stamp[p.ID] = s.gen
				s.cands = append(s.cands, p.ID)
			}
		}
		return
	}
	for _, p := range list {
		if dels[p.ID] {
			continue
		}
		if s.stamp[p.ID] != s.gen {
			s.stamp[p.ID] = s.gen
			s.cands = append(s.cands, p.ID)
		}
	}
}

// FilterValidate answers the query with the baseline F&V algorithm
// (Section 4): merge all k index lists of the query's items into a
// candidate set, then validate each candidate with a full Footrule
// computation against rawTheta.
func (s *Searcher) FilterValidate(q ranking.Ranking, rawTheta int, ev *metric.Evaluator) ([]ranking.Result, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, err
	}
	if ev == nil {
		ev = metric.New(nil)
	}
	s.nextGen()
	for _, item := range q {
		s.collect(s.idx.lists[item])
	}
	return s.validate(q, rawTheta, ev), nil
}

// validate computes the exact distance of every collected candidate through
// the compiled kernel — build-time ids as one batched pass over the flat
// arena, post-build ids per ranking — and counts one DFC per candidate.
func (s *Searcher) validate(q ranking.Ranking, rawTheta int, ev *metric.Evaluator) []ranking.Result {
	res := s.res[:0]
	if len(s.cands) > 0 {
		st := s.idx.store
		baseN := ranking.ID(st.Len())
		// Partition the candidate buffer in place: build-time ids first (the
		// common case; after a fresh build this moves nothing), inserted ids
		// after. Order is irrelevant — results are sorted below.
		cands := s.cands
		j := 0
		for i, id := range cands {
			if id < baseN {
				cands[i], cands[j] = cands[j], cands[i]
				j++
			}
		}
		s.kern.Compile(q)
		s.dists = s.kern.FootruleMany(st, cands[:j], s.dists[:0])
		for i, id := range cands[:j] {
			if d := s.dists[i]; d <= rawTheta {
				res = append(res, ranking.Result{ID: id, Dist: d})
			}
		}
		for _, id := range cands[j:] {
			if d := s.kern.Distance(s.idx.rankings[id]); d <= rawTheta {
				res = append(res, ranking.Result{ID: id, Dist: d})
			}
		}
		ev.Add(uint64(len(cands)))
	}
	ranking.SortResults(res)
	var out []ranking.Result
	if len(res) > 0 {
		out = make([]ranking.Result, len(res))
		copy(out, res)
	}
	s.res = res[:0]
	return out
}

// DropMode selects how many index lists F&V+Drop may skip.
type DropMode int

const (
	// DropSafe keeps k−ω+1 lists: any ranking missing from all kept lists
	// has overlap ≤ ω−1 with the query and hence distance ≥ L(k, ω−1) >
	// rawTheta. This bound is airtight for any choice of dropped lists.
	DropSafe DropMode = iota
	// DropAggressive keeps k−ω lists with the positional side condition of
	// Lemma 2 (at least one kept list belongs to a top-ω query position).
	// NOTE (reproduction finding): the lemma as stated has a boundary gap —
	// a ranking sharing exactly ω items with the query in a non-top-ω
	// configuration can still reach distance L(k,ω)+2, which is ≤ rawTheta
	// whenever rawTheta ≥ L(k,ω)+2. DropAggressive therefore guarantees no
	// false positives but can, in that narrow boundary region, miss results
	// whose overlap with the query is exactly ω placed off the top; see
	// TestDropAggressiveBoundary. DropSafe is the default everywhere.
	DropAggressive
)

// FilterValidateDrop answers the query with F&V+Drop (Section 6.1): the
// required-overlap bound ω of Lemma 2 allows skipping entire index lists.
// The longest lists are dropped, maximizing the saving; under
// DropAggressive the positional condition keeps at least one top-ω list.
func (s *Searcher) FilterValidateDrop(q ranking.Ranking, rawTheta int, ev *metric.Evaluator, mode DropMode) ([]ranking.Result, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, err
	}
	if ev == nil {
		ev = metric.New(nil)
	}
	kept := s.chooseKeptLists(q, rawTheta, mode)
	s.nextGen()
	for _, pos := range kept {
		s.collect(s.idx.lists[q[pos]])
	}
	return s.validate(q, rawTheta, ev), nil
}

// chooseKeptLists returns the query positions whose index lists must be
// read, ascending. Drops the longest lists first; under DropAggressive it
// enforces the Lemma 2 positional condition. The result aliases searcher
// scratch and is valid until the next call, so choosing lists allocates
// nothing.
func (s *Searcher) chooseKeptLists(q ranking.Ranking, rawTheta int, mode DropMode) []int {
	k := len(q)
	omega := ranking.RequiredOverlap(rawTheta, k)
	drop := omega - 1
	if mode == DropAggressive {
		drop = omega
	}
	if drop <= 0 {
		pos := s.kept[:0]
		for i := range q {
			pos = append(pos, i)
		}
		s.kept = pos
		return pos
	}
	if drop >= k {
		drop = k - 1 // always read at least one list
	}
	pos, lens := s.byListLength(q)
	kept := pos[drop:]
	if mode == DropAggressive && omega > 0 {
		// Positional condition: at least one kept list from a top-ω query
		// position. If violated, the shortest top-ω list replaces the longest
		// kept one (kept is sorted by length descending, so kept[0]).
		hasTop := false
		for _, p := range kept {
			hasTop = hasTop || p < omega
		}
		if !hasTop {
			bestTop := 0
			for p := 1; p < omega; p++ {
				if lens[p] < lens[bestTop] {
					bestTop = p
				}
			}
			kept[0] = bestTop
		}
	}
	slices.Sort(kept)
	return kept
}

// byListLength returns the query positions ordered by the length of their
// index lists, longest first (ties by position ascending: a stable sort of
// the ascending positions), and those lengths by position. Both alias
// searcher scratch and are valid until the next call.
func (s *Searcher) byListLength(q ranking.Ranking) (pos, lens []int) {
	pos, lens = s.kept[:0], s.lens[:0]
	for i, item := range q {
		pos = append(pos, i)
		lens = append(lens, len(s.idx.lists[item]))
	}
	s.kept, s.lens = pos, lens
	slices.SortStableFunc(pos, func(a, b int) int { return cmp.Compare(lens[b], lens[a]) })
	return pos, lens
}

// accumulate is the one posting-aggregation primitive (Section 7): a pass
// over the query's k lists, shortest first, that adds, for every posting, the
// gain 2·(k − max(q(i), τ(i))) of the shared item into acc[τ]. The
// rank-augmented postings alone determine the exact Footrule distance,
//
//	F(q,τ) = k(k+1) − Σ_{i shared} 2·(k − max(q(i), τ(i)))
//
// (both rankings' k(k+1)/2 rank sums counted as if disjoint, minus what each
// shared item takes back), so afterwards dmax − acc[id] is the distance of
// every id in the returned touched list, tombstoned ones included. A gain is
// at least 2 and a ranking's total at most k(k+1) ≤ 65 280, so 0 means
// "untouched" and fits the cell. The caller must zero acc[id] for every
// touched id before returning, so no query pays an O(collection) reset.
// touched aliases s.cands.
//
// n > 0 is the number of nearest neighbors the caller will select, and lets
// admission close (the §6.1 list-dropping bound as the stopping rule of
// Fagin–Lotem–Naor's threshold algorithm, in its whole-list form): a ranking
// absent from the lists read so far can still gain at most rem = Σ 2·(k − q(i))
// over the unread ones, so once n live touched rankings hold more than rem —
// gains only grow — every untouched ranking ends strictly below those n,
// ties included, and cannot be among the n nearest. The remaining lists are
// then walked update-only: touched ids keep accumulating to their exact gain,
// nothing new is appended. The count costs one look at every touched id, so
// it runs only before a list at least that long, and only once 2·rem <
// k(k+1): the read lists hold at most k(k+1) − rem per ranking, so before that
// no gain can exceed rem. With n = 0 admission never closes and touched is
// every ranking sharing an item with the query.
func (s *Searcher) accumulate(q ranking.Ranking, n int) (touched []ranking.ID) {
	idx := s.idx
	if size := len(idx.rankings); len(s.acc) < size {
		s.acc = append(s.acc, make([]uint16, size-len(s.acc))...)
	}
	acc, dels, k := s.acc, idx.deleted, len(q)
	order, lens := s.byListLength(q)
	touched = s.cands[:0]
	rem, open := k*(k+1), true
	for i := len(order) - 1; i >= 0; i-- { // shortest list first
		qr := order[i]
		if open && n > 0 && 2*rem < k*(k+1) && lens[qr] >= len(touched) {
			above := 0
			for _, id := range touched {
				if int(acc[id]) > rem && (dels == nil || !dels[id]) {
					if above++; above == n {
						open = false
						s.closed++
						break
					}
				}
			}
		}
		list := idx.lists[q[qr]]
		if open {
			// Every id is stored past the end of touched and kept only on its
			// first touch: the unconditional store is cheaper than the
			// unpredictable branch around an append.
			touched = slices.Grow(touched, len(list))
			t, m := touched[:cap(touched)], len(touched)
			for _, p := range list {
				a := acc[p.ID]
				t[m] = p.ID
				if a == 0 {
					m++
				}
				acc[p.ID] = a + uint16(2*(k-max(qr, int(p.Rank))))
			}
			touched = t[:m]
		} else {
			for _, p := range list {
				if a := acc[p.ID]; a != 0 {
					acc[p.ID] = a + uint16(2*(k-max(qr, int(p.Rank))))
				}
			}
		}
		rem -= 2 * (k - qr)
	}
	s.cands = touched
	return touched
}

// ListMerge answers the query from the rank-augmented lists alone (Section
// 7, "Merge of Id-Sorted Lists with Aggregation"): accumulate every
// overlapping ranking's exact distance, keep those within rawTheta, drop
// tombstones, sort by id. The algorithm is threshold-agnostic (the lists are
// always read entirely), which is why its runtime curves in Figures 8/9 are
// flat. ListMerge does not call the distance function; per the paper it is
// excluded from the DFC measurements (Figure 10), so the evaluator is
// ignored.
func (s *Searcher) ListMerge(q ranking.Ranking, rawTheta int, _ *metric.Evaluator) ([]ranking.Result, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, err
	}
	touched := s.accumulate(q, 0)
	acc, dels := s.acc, s.idx.deleted
	dmax := ranking.MaxDistance(len(q))
	var out []ranking.Result
	for _, id := range touched {
		d := dmax - int(acc[id])
		acc[id] = 0
		if d <= rawTheta && (dels == nil || !dels[id]) {
			out = append(out, ranking.Result{ID: id, Dist: d})
		}
	}
	ranking.SortResults(out)
	return out, nil
}

// checkQuery enforces the query contract — the index's ranking size, no
// repeated item; anything goes while the index is empty — without allocating:
// ranking.Validate builds a map past 16 items, so duplicates are looked for
// in a sorted scratch copy and Validate runs only to word the error of a
// query already known to be bad.
func (s *Searcher) checkQuery(q ranking.Ranking) error {
	if s.idx.Len() == 0 {
		return nil
	}
	if q.K() != s.idx.k {
		return fmt.Errorf("invindex: query size %d, index size %d: %w",
			q.K(), s.idx.k, ranking.ErrSizeMismatch)
	}
	s.items = append(s.items[:0], q...)
	slices.Sort(s.items)
	for i := 1; i < len(s.items); i++ {
		if s.items[i] == s.items[i-1] {
			return q.Validate()
		}
	}
	return nil
}
