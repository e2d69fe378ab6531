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
// plus an exact k-nearest-neighbor query (NearestNeighbors). All four run on
// one primitive, accumulate: a pass over some of the query's lists, shortest
// first, that sums, per ranking, the distance gain of every shared item and
// lists the rankings it touched. F&V validates every touched ranking (the
// gains unused). ListMerge reads every list, so the gains are exact, and
// thresholds them. F&V+Drop reads the kept lists and rejects every ranking
// whose gain plus the most the dropped lists could add (the Lemma 2 bound)
// cannot reach the threshold; it validates only the undecided band, and
// nothing when no list was dropped. NearestNeighbors selects the n smallest,
// and lets accumulate stop admitting new rankings once n of those seen are
// out of reach of any unseen one (the same bound over the unread lists, used
// as a threshold-algorithm stopping rule). Accumulated gain is not a distance
// call: ListMerge and NearestNeighbors add nothing to a DFC counter, F&V+Drop
// one per validated candidate (the paper's Figure 10 convention).
//
// The package is Footrule-only by construction: list dropping (Lemma 2), the
// accumulated gains and the dmax treatment of zero-overlap rankings all rest
// on Footrule's structure. F&V validation therefore always runs through the
// compiled internal/kernel, and the metric.Evaluator a query receives is its
// DFC counter — one call per validated candidate.
//
// One Index serves all algorithms: its postings are id-sorted and carry the
// rank of the item inside the posting's ranking. Query processing state (the
// gain accumulator, which also de-duplicates candidates, and the candidate
// and result buffers) lives in a Searcher; a Searcher serves one query at a
// time, so use one per goroutine — or draw them from a sync.Pool, which is
// how the topk facade lets any number of goroutines query a shared index
// concurrently.
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

// NewFromStore indexes an existing flat store without re-copying it, so a
// caller can share one arena with other structures over the same rankings.
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
	counts := make(map[ranking.Item]int, n)
	for _, it := range st.Flat() {
		counts[it]++
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
	for id, row := range st.Views() {
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
// id: the build-time rankings, then every ranking inserted since, tombstoned
// ones included — what a hybrid's forced adaptsearch sidecar is built over.
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
	// cands is the touched-id list of accumulate, then the candidates
	// validate evaluates.
	cands []ranking.ID
	// Compiled distance kernel plus pooled validation scratch: dists and res
	// are reused across queries so validate allocates only the exact-size
	// result slice it hands back.
	kern  *kernel.Kernel
	dists []int
	res   []ranking.Result
	// Per-ranking gain accumulator of accumulate, under all four algorithms:
	// all zero between queries, allocated on first use and grown with the
	// collection (2 bytes per indexed ranking). items is checkQuery's sorted
	// query copy for the duplicate check.
	acc   []uint16
	items []ranking.Item
	// byListLength's buffers (k entries each): the query positions, and the
	// query's posting lists by position — looked up once per query.
	kept  []int
	lists [][]Posting
	// closed counts the queries whose accumulate closed admission; read by the
	// test that keeps the early-termination path from going dead silently.
	closed int
}

// NewSearcher creates a searcher bound to idx.
func NewSearcher(idx *Index) *Searcher {
	return &Searcher{idx: idx, kern: kernel.New()}
}

// Index returns the underlying index.
func (s *Searcher) Index() *Index { return s.idx }

// FilterValidate answers the query with the baseline F&V algorithm
// (Section 4): merge all k index lists of the query's items into a
// candidate set, then validate each live candidate with a full Footrule
// computation against rawTheta. The merge is accumulate's first-touch list;
// the gains it sums on the way are not used.
func (s *Searcher) FilterValidate(q ranking.Ranking, rawTheta int, ev *metric.Evaluator) ([]ranking.Result, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, err
	}
	touched, _ := s.accumulate(q, s.byListLength(q), 0)
	s.cands = s.filter(touched, 0)
	return s.validate(q, rawTheta, ev), nil
}

// filter keeps, in place, the touched ids that are live and whose
// accumulated gain reaches floor, and clears the accumulator of every
// touched id.
func (s *Searcher) filter(touched []ranking.ID, floor int) []ranking.ID {
	acc, dels := s.acc, s.idx.deleted
	kept := touched[:0]
	for _, id := range touched {
		a := int(acc[id])
		acc[id] = 0
		if a >= floor && (dels == nil || !dels[id]) {
			kept = append(kept, id)
		}
	}
	return kept
}

// validate computes the exact distance of every collected candidate through
// the compiled kernel — build-time ids as one batched pass over the flat
// arena, post-build ids per ranking — and counts one DFC per candidate on ev
// (nil: not counted).
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
		if ev != nil {
			ev.Add(uint64(len(cands)))
		}
	}
	return s.finish(res)
}

// finish sorts the results collected in the pooled buffer res and hands back
// an exact-size copy — the query's one allocation (none when empty).
func (s *Searcher) finish(res []ranking.Result) []ranking.Result {
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
// The kept lists' postings decide most candidates (see decide); only the
// rest are validated.
func (s *Searcher) FilterValidateDrop(q ranking.Ranking, rawTheta int, ev *metric.Evaluator, mode DropMode) ([]ranking.Result, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, err
	}
	return s.decide(q, s.chooseKeptLists(q, rawTheta, mode), rawTheta, ev), nil
}

// decide answers a range query from the lists at pos (byListLength order).
// accumulate sums each touched ranking's gain over them and returns rem, the
// most the unread lists can add (Σ 2·(k − q(i)) over their positions). A
// ranking within rawTheta has total gain dmax − d ≥ dmax − rawTheta, so a
// touched id with acc + rem below that is rejected without a distance call,
// as is every tombstone. With rem = 0 (every list read) dmax − acc is the
// exact distance: ListMerge, no distance call. Otherwise only the undecided
// band is validated, so every result still is and DFC stays at least the
// result count.
func (s *Searcher) decide(q ranking.Ranking, pos []int, rawTheta int, ev *metric.Evaluator) []ranking.Result {
	touched, rem := s.accumulate(q, pos, 0)
	dmax := ranking.MaxDistance(len(q))
	need := dmax - rawTheta // the least gain a result has
	if rem == 0 {
		acc, dels := s.acc, s.idx.deleted
		res := s.res[:0]
		for _, id := range touched {
			a := int(acc[id])
			acc[id] = 0
			if a >= need && (dels == nil || !dels[id]) {
				res = append(res, ranking.Result{ID: id, Dist: dmax - a})
			}
		}
		return s.finish(res)
	}
	s.cands = s.filter(touched, need-rem)
	return s.validate(q, rawTheta, ev)
}

// chooseKeptLists returns the query positions whose index lists must be
// read, in byListLength order. Drops the longest lists first; under
// DropAggressive it enforces the Lemma 2 positional condition. The result
// aliases searcher scratch and is valid until the next call, so choosing
// lists allocates nothing.
func (s *Searcher) chooseKeptLists(q ranking.Ranking, rawTheta int, mode DropMode) []int {
	k := len(q)
	omega := ranking.RequiredOverlap(rawTheta, k)
	drop := omega - 1
	if mode == DropAggressive {
		drop = omega
	}
	drop = max(min(drop, k-1), 0) // always read at least one list
	kept := s.byListLength(q)[drop:]
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
				if len(s.lists[p]) < len(s.lists[bestTop]) {
					bestTop = p
				}
			}
			kept[0] = bestTop
		}
	}
	return kept
}

// byListLength looks up the query's k posting lists into s.lists (by
// position) and returns the positions ordered by list length, longest first
// (ties by position ascending: a stable sort of the ascending positions).
// Both alias searcher scratch and are valid until the next call.
func (s *Searcher) byListLength(q ranking.Ranking) []int {
	pos, lists := s.kept[:0], s.lists[:0]
	for i, item := range q {
		pos = append(pos, i)
		lists = append(lists, s.idx.lists[item])
	}
	s.kept, s.lists = pos, lists
	slices.SortStableFunc(pos, func(a, b int) int { return cmp.Compare(len(lists[b]), len(lists[a])) })
	return pos
}

// accumulate is the one posting-aggregation primitive (Section 7): a pass
// over the lists at the query positions pos (byListLength order, read from
// the back: shortest first) that adds, for every posting, the gain
// 2·(k − max(q(i), τ(i))) of the shared item into acc[τ]. The rank-augmented
// postings alone determine the exact Footrule distance,
//
//	F(q,τ) = k(k+1) − Σ_{i shared} 2·(k − max(q(i), τ(i)))
//
// (both rankings' k(k+1)/2 rank sums counted as if disjoint, minus what each
// shared item takes back), so after a pass over all k positions dmax −
// acc[id] is the distance of every id in the returned touched list,
// tombstoned ones included; after a pass over some, acc[id] is the part of
// the gain they hold and rem = Σ 2·(k − q(i)) over the positions not read
// bounds the rest. A gain is at least 2 and a ranking's total at most
// k(k+1) ≤ 65 280, so 0 means "untouched" and fits the cell. The caller must
// zero acc[id] for every touched id before returning, so no query pays an
// O(collection) reset. touched aliases s.cands.
//
// n > 0 is the number of nearest neighbors the caller will select, and lets
// admission close (the §6.1 list-dropping bound as the stopping rule of
// Fagin–Lotem–Naor's threshold algorithm, in its whole-list form): a ranking
// absent from the lists read so far can still gain at most rem over the
// unread ones, so once n live touched rankings hold more than rem — gains
// only grow — every untouched ranking ends strictly below those n, ties
// included, and cannot be among the n nearest. The remaining lists are then
// walked update-only: touched ids keep accumulating to their exact gain,
// nothing new is appended. The count costs one look at every touched id, so
// it runs only before a list at least that long, and only once 2·rem <
// k(k+1): the read lists hold at most k(k+1) − rem per ranking, so before that
// no gain can exceed rem. With n = 0 admission never closes and touched is
// every ranking sharing an item with the query in a list read.
func (s *Searcher) accumulate(q ranking.Ranking, pos []int, n int) (touched []ranking.ID, rem int) {
	idx := s.idx
	if size := len(idx.rankings); len(s.acc) < size {
		s.acc = append(s.acc, make([]uint16, size-len(s.acc))...)
	}
	acc, dels, k := s.acc, idx.deleted, len(q)
	touched = s.cands[:0]
	rem, open := k*(k+1), true
	for i := len(pos) - 1; i >= 0; i-- { // shortest list first
		qr := pos[i]
		list := s.lists[qr]
		if open && n > 0 && 2*rem < k*(k+1) && len(list) >= len(touched) {
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
		if open {
			touched = admit(acc, touched, list, k, qr)
		} else {
			update(acc, list, k, qr)
		}
		rem -= 2 * (k - qr)
	}
	s.cands = touched
	return touched, rem
}

// admit adds the gain of every posting of list, the index list of query
// position qr, into acc and appends the ids it touches first to touched.
// Every id is stored past the end of touched and kept only on its first
// touch: the unconditional store is cheaper than the unpredictable branch
// around an append. The posting loops live outside accumulate so the
// compiler keeps their state in registers.
func admit(acc []uint16, touched []ranking.ID, list []Posting, k, qr int) []ranking.ID {
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
	return t[:m]
}

// update is admit for a closed admission: only ids already touched gain.
func update(acc []uint16, list []Posting, k, qr int) {
	for _, p := range list {
		if a := acc[p.ID]; a != 0 {
			acc[p.ID] = a + uint16(2*(k-max(qr, int(p.Rank))))
		}
	}
}

// ListMerge answers the query from the rank-augmented lists alone (Section
// 7, "Merge of Id-Sorted Lists with Aggregation"): accumulate every
// overlapping ranking's exact distance, keep those within rawTheta, drop
// tombstones, sort by id — decide over all k lists. The algorithm is
// threshold-agnostic (the lists are always read entirely), which is why its
// runtime curves in Figures 8/9 are flat. ListMerge does not call the
// distance function; per the paper it is excluded from the DFC measurements
// (Figure 10), so the evaluator is ignored.
func (s *Searcher) ListMerge(q ranking.Ranking, rawTheta int, _ *metric.Evaluator) ([]ranking.Result, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, err
	}
	return s.decide(q, s.byListLength(q), rawTheta, nil), nil
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
