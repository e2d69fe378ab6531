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
// DFC counter — one call per validated candidate; a nil one counts nothing.
// Every query entry point, and Insert, checks ranking.Check against the
// index's k (a Mutable against its own k: declared, or fixed by a live
// ranking, and kept by a compaction over zero survivors) before any of that
// work, which then checks nothing. New checks every ranking it is built over
// the same way.
//
// One Index serves all algorithms. Its postings live in two parallel arenas,
// ids and ranks (5 bytes a posting): every item's list is one span of both,
// id-sorted, with the rank of the item inside each posting's ranking at the
// same position. A dictionary indexed by item value locates the span — a
// dense table below kernel.MaxDenseItems, a map past it (the rule
// internal/kernel uses) — so a query finds each of its lists by array index.
// Query processing state (the gain accumulator, which also de-duplicates
// candidates, and the candidate and result buffers) lives in a Searcher; a
// Searcher serves one query at a time, so use one per goroutine — or draw
// them from a sync.Pool, which is how Mutable (mutable.go), the index
// cmd/topkserve serves, lets any number of goroutines query a shared index
// concurrently.
package invindex

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// span locates one item's posting list in the arenas: n postings at
// [off, off+n), with room reserved up to off+cap.
type span struct{ off, n, cap uint32 }

// arenaLimit is the most postings the arenas may hold: spans address them
// with uint32 offsets, which must not wrap. A variable so a test can reach it.
var arenaLimit uint64 = math.MaxUint32

// Index is a rank-augmented inverted index over a collection of same-size
// rankings: for every item, the id-sorted list of rankings containing it,
// together with the item's rank (the "inverted index w/ ranks" of §6.2), and
// for a list covering a fifth of the collection a rank column (see cols). The
// rankings themselves are held once, in a kernel.Store the index owns.
type Index struct {
	// store holds the collection, the only copy of each ranking: New copies
	// the rankings into a fresh one, NewFromStore takes the caller's. Insert
	// appends to it, so the batched kernel validates every id against one
	// flat arena, and the ranking size and the id space are the store's.
	store *kernel.Store
	// ids and ranks are the posting arenas. The build lays every list out
	// tight, in item order; Insert grows a list in place while it has room
	// and otherwise moves it to the arena end with doubled room, abandoning
	// the old span (garbage counts those slots). Once the abandoned slots
	// outnumber the postings, Insert re-packs the arenas, keeping every
	// list's room, so the arenas never exceed three slots a posting.
	ids     []ranking.ID
	ranks   []uint8
	garbage int
	// dense[it] is the span of item it < kernel.MaxDenseItems (the zero span
	// past its end), sparse the span of every larger item.
	dense    []span
	sparse   map[ranking.Item]*span
	numLists int
	// deleted marks tombstoned ids; postings of tombstoned rankings remain
	// in the lists until the owner rebuilds the index, and every query
	// algorithm skips them. nil until the first Delete; once allocated it is
	// kept at Len().
	deleted []bool
	dead    int
	// cols[it] is item it's rank column: [id] is 1 + its rank in ranking id,
	// 0 (or id past the end) when the ranking lacks it; KNN probes it instead
	// of scanning the list. It exists only while 5·len(list) ≥ len(column)
	// (1 B a ranking against 5 B a posting), so columns never outweigh the
	// arenas. The build makes them; Insert grows or drops its items' ones.
	cols map[ranking.Item][]uint8
}

// New indexes the collection, each ranking of which must pass ranking.Check
// against the first one's size (at least one item). Rankings are copied into
// a flat k-strided arena (see kernel.Store); ids are their positions in the
// slice.
func New(rankings []ranking.Ranking) (*Index, error) {
	// The store takes one size; the build checks the rest of the contract.
	size := func(r ranking.Ranking) bool { return len(r) != max(rankings[0].K(), 1) }
	if i := slices.IndexFunc(rankings, size); i >= 0 {
		for id, r := range rankings[:i+1] {
			if err := ranking.Check(r, max(rankings[0].K(), 1)); err != nil {
				return nil, rankingError(id, err)
			}
		}
	}
	return build(kernel.NewStore(rankings), rankingError)
}

// NewFromStore indexes st, which the index then owns: Insert appends to it.
func NewFromStore(st *kernel.Store) (*Index, error) { return build(st, rankingError) }

func rankingError(id int, err error) error { return fmt.Errorf("invindex: ranking %d: %w", id, err) }

// build indexes st with up to workers(st.Len()) workers. Its first pass
// checks every row with ranking.Check, and a row that fails fails the build
// with rowErr(id, err); a nil rowErr skips the check (the rows of a
// compaction passed it on their way in).
func build(st *kernel.Store, rowErr func(id int, err error) error) (*Index, error) {
	return buildP(st, workers(st.Len()), rowErr)
}

// minChunk is the fewest rankings a worker of a whole-collection pass takes:
// below two chunks' worth the pass runs on the caller's goroutine alone.
const minChunk = 4096

// workers is the worker count of a whole-collection pass over n rankings:
// one per GOMAXPROCS, as far as each takes at least minChunk of them.
func workers(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n/minChunk)) }

// inChunks cuts [0, n) into p contiguous chunks and runs f(c, lo, hi) on
// chunk c = [lo, hi) of each concurrently, chunk 0 on the caller's
// goroutine; it returns when all have. Equal n and p cut equal chunks.
func inChunks(n, p int, f func(c, lo, hi int)) {
	var wg sync.WaitGroup
	for c := 1; c < p; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c, c*n/p, (c+1)*n/p)
		}()
	}
	f(0, 0, n/p)
	wg.Wait()
}

// The build sorts postings by item in one digit while a per-item count
// table (4 B an item value) stays within 128 KiB; past that its counts and
// scatter miss cache, so it partitions on the items' high bits and sorts
// each bucket of 1 << bucketBits values on its low bits in a table that fits
// L1 (Manegold, Boncz and Kersten, VLDB 1999; Polychroniou and Ross, SIGMOD
// 2014). On a 2-core Xeon two digits build 17 000 item values 35 % slower
// than one, 81 000 25 % faster.
const (
	oneDigitItems = 1 << 15
	bucketBits    = 10
)

// buildChunk is one build worker's per-bucket tables for its chunk of ids (a
// bucket is one item in one digit): first the postings of the bucket the
// chunk holds, then the arena slot its next posting of the bucket goes to.
type buildChunk struct {
	dense  []uint32
	sparse map[ranking.Item]uint32
}

// buildP indexes st by a parallel counting sort over up to p contiguous id
// chunks. Pass 1 checks every row and finds the largest dense item. Pass 2
// counts each chunk's postings per bucket; a serial prefix pass places every
// bucket, and each chunk's part of it after every lower chunk's; each chunk
// scatters its postings (in two digits with their low item bits) into its
// parts, visiting its ids in ascending order. So each bucket comes out
// id-sorted: in one digit it is a list, in two sortBuckets sorts it stably
// into its lists. The layout depends on neither the chunk count nor the
// digits: the dense items ascending, then the sparse ones. A list long
// enough gets a rank column (Index.cols), filled once the lists are. Below
// kernel.MaxDenseItems nothing is hashed. There are fewer chunks when p
// dense tables (a slot per bucket) would outnumber the postings: a wide item
// domain must not make the transient tables outweigh the index.
func buildP(st *kernel.Store, p int, rowErr func(id int, err error) error) (*Index, error) {
	n, k := st.Len(), st.K()
	if k > ranking.MaxK {
		return nil, fmt.Errorf("invindex: k=%d exceeds the uint8 rank range: %w", k, ranking.ErrSizeMismatch)
	}
	if uint64(n)*uint64(k) > arenaLimit {
		return nil, fmt.Errorf("invindex: %d rankings of size %d exceed %d postings", n, k, arenaLimit)
	}
	flat := st.Flat()
	tops, errs := make([]int, p), make([]error, p) // one past each chunk's largest dense item
	inChunks(n, p, func(c, lo, hi int) {
		top := 0
		for id := lo; id < hi; id++ {
			row := ranking.Ranking(flat[id*k : (id+1)*k])
			if err := ranking.Check(row, k); rowErr != nil && err != nil {
				errs[c] = rowErr(id, err)
				return
			}
			for _, it := range row {
				if it < kernel.MaxDenseItems && int(it) >= top {
					top = int(it) + 1
				}
			}
		}
		tops[c] = top
	})
	if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
		return nil, errs[i]
	}
	nd, shift := slices.Max(tops), uint32(0)
	if nd > oneDigitItems {
		shift = bucketBits
	}
	nb := (nd + 1<<shift - 1) >> shift
	p = max(1, min(p, len(flat)/max(nb, 1)))
	chunks := make([]buildChunk, p)
	inChunks(n, p, func(c, lo, hi int) {
		chunks[c] = buildChunk{make([]uint32, nb), make(map[ranking.Item]uint32)}
		chunks[c].count(flat[lo*k:hi*k], shift)
	})

	idx := &Index{store: st, dense: make([]span, nd), sparse: make(map[ranking.Item]*span),
		cols: make(map[ranking.Item][]uint8)}
	var far []ranking.Item
	for c := range chunks {
		for it := range chunks[c].sparse {
			if idx.sparse[it] == nil {
				idx.sparse[it] = new(span)
				far = append(far, it)
			}
		}
	}
	slices.Sort(far)
	bounds := make([]uint32, nb+1) // bucket b's region is [bounds[b], bounds[b+1])
	for b := range nb {
		off := bounds[b]
		for c := range chunks {
			d := chunks[c].dense
			d[b], off = off, off+d[b]
		}
		bounds[b+1] = off
		if cnt := off - bounds[b]; shift == 0 && cnt > 0 {
			idx.dense[b] = span{off: bounds[b], n: cnt, cap: cnt}
			idx.addList(ranking.Item(b), cnt)
		}
	}
	off := bounds[nb]
	for _, it := range far {
		start := off
		for c := range chunks {
			if cnt, ok := chunks[c].sparse[it]; ok {
				chunks[c].sparse[it], off = off, off+cnt
			}
		}
		*idx.sparse[it] = span{off: start, n: off - start, cap: off - start}
		idx.addList(it, off-start)
	}

	idx.ids, idx.ranks = make([]ranking.ID, off), make([]uint8, off)
	var low []uint16 // in two digits, each dense posting's low item bits
	if shift > 0 {
		low = make([]uint16, bounds[nb])
	}
	inChunks(n, p, func(c, lo, hi int) {
		chunks[c].scatter(flat, k, lo, hi, shift, idx.ids, idx.ranks, low)
	})
	if low != nil {
		idx.sortBuckets(bounds, low, p)
	}
	for it, col := range idx.cols {
		ids, ranks := idx.Postings(it)
		for j, id := range ids {
			col[id] = ranks[j] + 1
		}
	}
	return idx, nil
}

// count adds each of items to its bucket's count. The posting loops live
// outside buildP so the compiler keeps their state in registers.
func (ch *buildChunk) count(items []ranking.Item, shift uint32) {
	dense := ch.dense
	for _, it := range items {
		if it < kernel.MaxDenseItems {
			dense[it>>(shift&31)]++
		} else {
			ch.sparse[it]++
		}
	}
}

// scatter writes the postings of rankings [lo, hi) of flat at the chunk's
// cursors, and their low item bits into low unless it is nil (one digit).
func (ch *buildChunk) scatter(flat []ranking.Item, k, lo, hi int, shift uint32, ids []ranking.ID, ranks []uint8, low []uint16) {
	dense := ch.dense
	for id := lo; id < hi; id++ {
		for rank, it := range flat[id*k : (id+1)*k] {
			var at uint32
			if it < kernel.MaxDenseItems {
				b := it >> (shift & 31)
				at = dense[b]
				dense[b] = at + 1
				if low != nil {
					low[at] = uint16(it & (1<<bucketBits - 1))
				}
			} else {
				at = ch.sparse[it]
				ch.sparse[it] = at + 1
			}
			ids[at], ranks[at] = ranking.ID(id), uint8(rank)
		}
	}
}

// addList counts a list of cnt postings the build laid out, and gives it a
// rank column if it wants one.
func (idx *Index) addList(it ranking.Item, cnt uint32) {
	idx.numLists++
	if idx.wantsColumn(cnt) {
		idx.cols[it] = make([]uint8, idx.Len())
	}
}

// wantsColumn reports whether a list of cnt postings gets a rank column: it
// covers a fifth of the collection.
func (idx *Index) wantsColumn(cnt uint32) bool { return 5*uint64(cnt) >= uint64(idx.Len()) }

// sortBuckets finishes a two-digit build: bucket b's postings lie id-sorted
// in [bounds[b], bounds[b+1]) of the arenas, low holding their low item
// bits, and a stable counting sort on those lays out its lists. p workers
// take bucket ranges of about equal postings (the Zipf head's bucket is one
// worker's alone).
func (idx *Index) sortBuckets(bounds []uint32, low []uint16, p int) {
	nb := len(bounds) - 1
	first := make([]int, p+1) // worker w sorts buckets [first[w], first[w+1])
	for w := 1; w < p; w++ {
		first[w], _ = slices.BinarySearch(bounds[:nb], uint32(uint64(bounds[nb])*uint64(w)/uint64(p)))
	}
	first[p] = nb
	lists, long := make([]int, p), make([][]ranking.Item, p)
	inChunks(p, p, func(w, _, _ int) {
		var cnt [1 << bucketBits]uint32
		var ids []ranking.ID
		var ranks []uint8
		for b := first[w]; b < first[w+1]; b++ {
			lo, hi := bounds[b], bounds[b+1]
			clear(cnt[:])
			for _, l := range low[lo:hi] {
				cnt[l]++
			}
			for j := range cnt {
				at := cnt[j]
				cnt[j] = lo
				if at > 0 {
					it := b<<bucketBits + j
					idx.dense[it] = span{off: lo, n: at, cap: at}
					if lists[w]++; idx.wantsColumn(at) {
						long[w] = append(long[w], ranking.Item(it))
					}
					lo += at
				}
			}
			ids, ranks = append(ids[:0], idx.ids[bounds[b]:hi]...), append(ranks[:0], idx.ranks[bounds[b]:hi]...)
			for i, l := range low[bounds[b]:hi] {
				at := cnt[l]
				cnt[l]++
				idx.ids[at], idx.ranks[at] = ids[i], ranks[i]
			}
		}
	})
	for w := range p {
		idx.numLists += lists[w]
		for _, it := range long[w] {
			idx.cols[it] = make([]uint8, idx.Len())
		}
	}
}

// slot returns item it's span for writing, adding an empty one if the item
// is new.
func (idx *Index) slot(it ranking.Item) *span {
	if it < kernel.MaxDenseItems {
		if int(it) >= len(idx.dense) {
			idx.dense = append(idx.dense, make([]span, int(it)+1-len(idx.dense))...)
		}
		return &idx.dense[it]
	}
	s := idx.sparse[it]
	if s == nil {
		s = new(span)
		idx.sparse[it] = s
	}
	return s
}

// eachSpan calls f with every list's span: the dense items ascending, then
// the sparse ones in map order.
func (idx *Index) eachSpan(f func(it ranking.Item, s *span)) {
	for it := range idx.dense {
		if s := &idx.dense[it]; s.n > 0 {
			f(ranking.Item(it), s)
		}
	}
	for it, s := range idx.sparse {
		f(it, s)
	}
}

// Postings returns item's posting list: the ids of the rankings containing
// it, ascending, and the item's rank inside each at the same position (both
// empty if the item is unseen). The slices are owned by the index, must not
// be modified, and are valid until the next Insert.
func (idx *Index) Postings(it ranking.Item) ([]ranking.ID, []uint8) {
	return idx.list(idx.lookup(it))
}

// list returns the postings s locates.
func (idx *Index) list(s span) ([]ranking.ID, []uint8) {
	end := s.off + s.n
	return idx.ids[s.off:end:end], idx.ranks[s.off:end:end]
}

// lookup returns item's span, the zero span if the item is unseen. An item
// below kernel.MaxDenseItems is found by array index, never hashed.
func (idx *Index) lookup(it ranking.Item) span {
	if int(it) < len(idx.dense) {
		return idx.dense[it]
	}
	if it >= kernel.MaxDenseItems {
		if s := idx.sparse[it]; s != nil {
			return *s
		}
	}
	return span{}
}

// EachList calls f with every posting list (see Postings): the items below
// kernel.MaxDenseItems ascending, then the larger ones in no fixed order.
func (idx *Index) EachList(f func(it ranking.Item, ids []ranking.ID, ranks []uint8)) {
	idx.eachSpan(func(it ranking.Item, s *span) {
		ids, ranks := idx.list(*s)
		f(it, ids, ranks)
	})
}

// K returns the ranking size.
func (idx *Index) K() int { return idx.store.K() }

// Len returns the number of indexed rankings, including tombstoned ones
// (it is the size of the id space, not the live count; see Live).
func (idx *Index) Len() int { return idx.store.Len() }

// Live returns the number of indexed rankings that are not tombstoned.
func (idx *Index) Live() int { return idx.Len() - idx.dead }

// Dead returns the number of tombstoned rankings.
func (idx *Index) Dead() int { return idx.dead }

// Deleted reports whether id is tombstoned.
func (idx *Index) Deleted(id ranking.ID) bool {
	return idx.deleted != nil && int(id) < len(idx.deleted) && idx.deleted[id]
}

// Ranking returns the indexed ranking with the given id, a read-only view
// into the store that stays valid across later Inserts.
func (idx *Index) Ranking(id ranking.ID) ranking.Ranking { return idx.store.Slot(id) }

// Rankings returns views of the whole collection (see Ranking), indexed by
// id: the build-time rankings, then every ranking inserted since, tombstoned
// ones included. It allocates the slice of views on every call, so it is for
// builds over the collection — the blocked index — not for queries.
func (idx *Index) Rankings() []ranking.Ranking {
	out := make([]ranking.Ranking, idx.Len())
	for id := range out {
		out[id] = idx.Ranking(ranking.ID(id))
	}
	return out
}

// NumLists returns the number of distinct items (index lists).
func (idx *Index) NumLists() int { return idx.numLists }

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
	// collection (2 bytes per indexed ranking).
	acc []uint16
	// byListLength's buffers (k entries each): the query positions, and the
	// span of each position's posting list, looked up once per query.
	kept  []int
	spans []span
	// closed, exits and offered count closed admissions, early stops on an
	// open last list and the postings those walks read (nearestNeighbors):
	// the tests that keep these paths from going dead silently read them.
	closed, exits, offered int
	// sink folds in the values the row and head passes of validate and
	// accumulate load, so the compiler keeps those loads.
	sink uint32
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
	if err := ranking.Check(q, s.idx.K()); err != nil {
		return nil, err
	}
	return s.search(FilterValidate, q, rawTheta, ev), nil
}

// search answers a query its caller has checked with alg, F&V+Drop in its
// DropSafe form.
func (s *Searcher) search(alg Algorithm, q ranking.Ranking, rawTheta int, ev *metric.Evaluator) []ranking.Result {
	switch alg {
	case FilterValidate:
		touched, _, _ := s.accumulate(q, s.byListLength(q), 0)
		s.cands = s.filter(touched, 0)
		return s.validate(q, rawTheta, ev)
	case FilterValidateDrop:
		return s.decide(q, s.chooseKeptLists(q, rawTheta, DropSafe), rawTheta, ev)
	}
	return s.decide(q, s.byListLength(q), rawTheta, nil)
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

// validate computes the exact distance of every collected candidate, built
// or inserted alike, in one batched pass of the compiled kernel over the
// store's flat arena, and counts one DFC per candidate on ev. The candidates
// are a sparse handful scattered over the store, so each row is a cache
// miss, and the kernel takes them one at a time: its
// matched/unmatched branch mispredicts and stops the core from running ahead
// to the next row. So first one loop loads both cache lines each row can
// span, its first and its last item, back to back: their misses overlap, and
// the kernel finds the rows in cache. The arena is read on every call, as an
// Insert may have moved it.
func (s *Searcher) validate(q ranking.Ranking, rawTheta int, ev *metric.Evaluator) []ranking.Result {
	res := s.res[:0]
	if len(s.cands) > 0 {
		flat, k, sink := s.idx.store.Flat(), s.idx.K(), s.sink
		for _, id := range s.cands {
			lo := int(id) * k
			sink += flat[lo] + flat[lo+k-1]
		}
		s.sink = sink
		s.kern.Compile(q)
		s.dists = s.kern.FootruleMany(s.idx.store, s.cands, s.dists[:0])
		for i, id := range s.cands {
			if d := s.dists[i]; d <= rawTheta {
				res = append(res, ranking.Result{ID: id, Dist: d})
			}
		}
		ev.Add(uint64(len(s.cands)))
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
	if err := ranking.Check(q, s.idx.K()); err != nil {
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
	touched, rem, _ := s.accumulate(q, pos, 0)
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
				if s.spans[p].n < s.spans[bestTop].n {
					bestTop = p
				}
			}
			kept[0] = bestTop
		}
	}
	return kept
}

// byListLength looks up each query position's list span into s.spans, back to
// back so the cache misses overlap, and insertion-sorts the positions by list
// length, longest first, ties by position ascending: the order decides which
// lists F&V+Drop drops. Both alias searcher scratch until the next call.
func (s *Searcher) byListLength(q ranking.Ranking) []int {
	spans := s.spans[:0]
	for _, it := range q {
		spans = append(spans, s.idx.lookup(it))
	}
	pos := s.kept[:0]
	for i, sp := range spans {
		j := len(pos)
		pos = append(pos, i)
		for ; j > 0 && spans[pos[j-1]].n < sp.n; j-- {
			pos[j] = pos[j-1]
		}
		pos[j] = i
	}
	s.kept, s.spans = pos, spans
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
//
// With n > 0 the last list is never admitted: if admission is still open
// there, it is walked update-only too and open returned, and the caller
// offers the rankings only it holds (see nearestNeighbors). An update-only
// walk probes the touched ids in the list's rank column (Index.cols) instead
// when it has one and they are fewer than its postings.
//
// A range query (n = 0) reads its lists' heads first: one loop loads the
// first id and rank of every list with postings, back to back, so the walk
// does not take each list's first miss alone. KNN reads every list in full
// and its long lists stream, so it skips that loop.
func (s *Searcher) accumulate(q ranking.Ranking, pos []int, n int) (touched []ranking.ID, rem int, open bool) {
	idx := s.idx
	if size := idx.Len(); len(s.acc) < size {
		s.acc = append(s.acc, make([]uint16, size-len(s.acc))...)
	}
	if n == 0 {
		sink := s.sink
		for _, qr := range pos {
			if sp := s.spans[qr]; sp.n > 0 {
				sink += idx.ids[sp.off] + uint32(idx.ranks[sp.off])
			}
		}
		s.sink = sink
	}
	acc, dels, k := s.acc, idx.deleted, len(q)
	touched = s.cands[:0]
	rem, open = k*(k+1), true
	for i := len(pos) - 1; i >= 0; i-- { // shortest list first
		qr := pos[i]
		ids, ranks := idx.list(s.spans[qr])
		if open && n > 0 && 2*rem < k*(k+1) && len(ids) >= len(touched) {
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
		if open && (n == 0 || i > 0) {
			touched = admit(acc, touched, ids, ranks, k, qr)
		} else if col := idx.cols[q[qr]]; col != nil && len(touched) < len(ids) {
			probe(acc, touched, col, k, qr)
		} else if len(touched) > 0 {
			update(acc, ids, ranks, k, qr)
		}
		rem -= 2 * (k - qr)
	}
	s.cands = touched
	return touched, rem, open && n > 0
}

// admit adds the gain of every posting of the index list of query position
// qr (ids, with ranks at the same positions) into acc and appends the ids it
// touches first to touched.
// Every id is stored past the end of touched and kept only on its first
// touch: the unconditional store is cheaper than the unpredictable branch
// around an append. The posting loops live outside accumulate so the
// compiler keeps their state in registers.
func admit(acc []uint16, touched, ids []ranking.ID, ranks []uint8, k, qr int) []ranking.ID {
	touched = slices.Grow(touched, len(ids))
	t, m := touched[:cap(touched)], len(touched)
	ranks = ranks[:len(ids)]
	for j, id := range ids {
		a := acc[id]
		t[m] = id
		if a == 0 {
			m++
		}
		acc[id] = a + uint16(2*(k-max(qr, int(ranks[j]))))
	}
	return t[:m]
}

// update is admit for a closed admission: only ids already touched gain, and
// only their ranks are read. Out of line, with 2k hoisted, its loop state stays
// in registers; inlined into accumulate, it spilled to the stack.
//
//go:noinline
func update(acc []uint16, ids []ranking.ID, ranks []uint8, k, qr int) {
	ranks, top := ranks[:len(ids)], uint16(2*k)
	for j, id := range ids {
		if a := acc[id]; a != 0 {
			acc[id] = a + top - 2*uint16(max(int(ranks[j]), qr))
		}
	}
}

// probe is update through a rank column: each touched id adds the gain of its
// entry in col (1 + rank; 0, or an id past the end, gains 0), read from a
// table so that no branch depends on whether the ranking holds the item.
//
//go:noinline
func probe(acc []uint16, touched []ranking.ID, col []uint8, k, qr int) {
	var gain [256]uint16
	for c := 1; c <= k; c++ {
		gain[c] = uint16(2 * (k - max(c-1, qr)))
	}
	for _, id := range touched {
		if uint(id) < uint(len(col)) {
			acc[id] += gain[col[id]]
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
	if err := ranking.Check(q, s.idx.K()); err != nil {
		return nil, err
	}
	return s.search(ListMerge, q, rawTheta, nil), nil
}
