package invindex

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/kernel"
	"topk/internal/ranking"
)

// TestSparseAndUnseenItems holds every algorithm to the oracle over a
// collection whose items straddle kernel.MaxDenseItems, at build time and on
// insert, with inserts that take the dense table past its build-time
// maximum and queries holding items the index has never seen. DropAggressive
// must also answer exactly like the same collection relabelled onto dense
// items — list choice depends only on list lengths and positions — and like
// the oracle below its documented boundary gap (rawTheta < L(k,ω)+2).
func TestSparseAndUnseenItems(t *testing.T) {
	const k, domain = 6, 30
	rng := rand.New(rand.NewSource(21))
	wide := func(r ranking.Ranking) ranking.Ranking { // every third item past the cap
		out := r.Clone()
		for i, it := range out {
			if it%3 == 0 {
				out[i] = kernel.MaxDenseItems + it
			}
		}
		return out
	}
	rs := difftest.RandomCollection(rng, 120, k, domain)
	wideRs := make([]ranking.Ranking, len(rs))
	for i, r := range rs {
		wideRs[i] = wide(r)
	}
	idx, err := New(wideRs)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(wideRs)
	for i := 0; i < 60; i++ { // items up to domain+10: new dense and sparse lists
		r := difftest.RandomRanking(rng, k, domain+10)
		rs = append(rs, r)
		if _, err := idx.Insert(wide(r)); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Insert(r); err != nil {
			t.Fatal(err)
		}
		o.Insert(wide(r))
	}
	for id := ranking.ID(0); id < ranking.ID(o.NumSlots()); id += 7 {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := twin.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := o.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if len(idx.dense) <= domain || len(idx.sparse) == 0 {
		t.Fatalf("dense table %d entries, %d sparse lists: the inserts reached neither path", len(idx.dense), len(idx.sparse))
	}
	for it := range idx.sparse {
		if it < kernel.MaxDenseItems {
			t.Fatalf("item %d below the cap has a sparse list", it)
		}
	}
	if len(twin.sparse) != 0 {
		t.Fatal("an all-dense index has sparse lists")
	}

	s, st := NewSearcher(idx), NewSearcher(twin)
	dmax := ranking.MaxDistance(k)
	for trial := 0; trial < 40; trial++ {
		q := difftest.RandomRanking(rng, k, domain+20) // items past every list
		if trial%4 == 0 {
			q = rs[rng.Intn(len(rs))]
		}
		wq := wide(q)
		checkListMerge(t, s, o, wq)
		for raw := 0; raw < dmax; raw += 3 {
			got, err := s.FilterValidateDrop(wq, raw, nil, DropAggressive)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := st.FilterValidateDrop(q, raw, nil, DropAggressive)
			if err != nil {
				t.Fatal(err)
			}
			if !difftest.Equal(got, dense) {
				t.Fatalf("raw=%d q=%v: DropAggressive %v, relabelled dense twin %v", raw, wq, got, dense)
			}
			omega := ranking.RequiredOverlap(raw, k)
			if want := o.SearchRaw(wq, raw); raw < ranking.MinDistanceOverlap(k, omega)+2 && !difftest.Equal(got, want) {
				t.Fatalf("raw=%d q=%v: DropAggressive %v != oracle %v", raw, wq, got, want)
			}
		}
	}
	unseen := ranking.Ranking{kernel.MaxDenseItems + 999, kernel.MaxDenseItems - 1, 1000, 1001, 1002, 1003}
	if ids, ranks := idx.Postings(unseen[0]); len(ids) != 0 || len(ranks) != 0 {
		t.Fatalf("unseen item has postings %v %v", ids, ranks)
	}
	checkListMerge(t, s, o, unseen)
}

// TestInsertGrownMatchesBulk grows an index from empty by Insert over a
// skewed collection — every list moves many times — and holds it to the
// bulk-built index over the same rankings: all four range algorithms and KNN
// answer byte-identically, and after every insert the abandoned slots stay
// at most the postings (the re-pack rule) and the arenas at most three slots
// a posting.
func TestInsertGrownMatchesBulk(t *testing.T) {
	const n, k = 3000, 10
	cfg := dataset.NYTLike(n, k)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	repacks := 0
	for i, r := range rs {
		before := grown.garbage
		if _, err := grown.Insert(r); err != nil {
			t.Fatal(err)
		}
		if grown.garbage < before {
			repacks++
		}
		if live := (i + 1) * k; grown.garbage > live || len(grown.ids) > 3*live {
			t.Fatalf("after %d inserts: %d abandoned and %d arena slots for %d postings", i+1, grown.garbage, len(grown.ids), live)
		}
	}
	if repacks == 0 {
		t.Fatal("the arenas were never re-packed")
	}
	if grown.NumLists() != bulk.NumLists() {
		t.Fatalf("NumLists %d, bulk-built %d", grown.NumLists(), bulk.NumLists())
	}
	bulk.EachList(func(it ranking.Item, ids []ranking.ID, ranks []uint8) {
		gids, granks := grown.Postings(it)
		if !slices.Equal(gids, ids) || !slices.Equal(granks, ranks) {
			t.Fatalf("item %d: grown list differs from the bulk-built one", it)
		}
	})

	queries, err := dataset.Workload(rs, cfg, 60, 0.8, cfg.Seed+7)
	if err != nil {
		t.Fatal(err)
	}
	sb, sg := NewSearcher(bulk), NewSearcher(grown)
	for _, q := range queries {
		for _, raw := range []int{0, 11, 22, 33, 55} {
			for _, run := range []func(s *Searcher) ([]ranking.Result, error){
				func(s *Searcher) ([]ranking.Result, error) { return s.FilterValidate(q, raw, nil) },
				func(s *Searcher) ([]ranking.Result, error) { return s.FilterValidateDrop(q, raw, nil, DropSafe) },
				func(s *Searcher) ([]ranking.Result, error) { return s.FilterValidateDrop(q, raw, nil, DropAggressive) },
				func(s *Searcher) ([]ranking.Result, error) { return s.ListMerge(q, raw, nil) },
				func(s *Searcher) ([]ranking.Result, error) { return s.NearestNeighbors(q, 1+raw/5, nil) },
			} {
				want, err := run(sb)
				if err != nil {
					t.Fatal(err)
				}
				got, err := run(sg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("raw=%d q=%v: insert-grown %v, bulk-built %v", raw, q, got, want)
				}
			}
		}
	}
}

// TestInsertPastArenaLimit pins the overflow rule: spans address postings
// with uint32 offsets, so an insert whose list moves would take the arenas
// past the limit is refused with nothing changed, and so is a build over
// more postings than the limit.
func TestInsertPastArenaLimit(t *testing.T) {
	defer func(l uint64) { arenaLimit = l }(arenaLimit)
	rs := []ranking.Ranking{{1, 2, 3}, {2, 3, 4}, {5, 6, 7}}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	arenaLimit = 12
	if _, err := idx.Insert(ranking.Ranking{1, 2, 3}); err == nil {
		t.Fatal("insert past the arena limit accepted")
	}
	if idx.Len() != 3 || len(idx.ids) != 9 {
		t.Fatalf("refused insert left Len %d, %d arena slots", idx.Len(), len(idx.ids))
	}
	if got, _ := NewSearcher(idx).ListMerge(ranking.Ranking{1, 2, 3}, 0, nil); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("after the refused insert: %v", got)
	}
	if _, err := idx.Insert(ranking.Ranking{8, 9, 10}); err != nil { // three new lists of one
		t.Fatalf("insert within the limit: %v", err)
	}
	if _, err := New(append(rs, ranking.Ranking{8, 9, 10}, ranking.Ranking{9, 10, 11})); err == nil {
		t.Fatal("build past the arena limit accepted")
	}
}

// referenceBuild lays coll's postings out the plain way, one item at a
// time: the dense items ascending, then the sparse ones, each list id-sorted
// with the item's rank beside every id. It returns the arenas and each
// item's span, and the rank column every list covering a fifth of the
// collection must have.
func referenceBuild(coll []ranking.Ranking) ([]ranking.ID, []uint8, map[ranking.Item]span, map[ranking.Item][]uint8) {
	byItem := make(map[ranking.Item][]ranking.ID)
	var items []ranking.Item
	for id, r := range coll {
		for _, it := range r {
			if byItem[it] == nil {
				items = append(items, it)
			}
			byItem[it] = append(byItem[it], ranking.ID(id))
		}
	}
	slices.Sort(items) // every dense item is below every sparse one
	var ids []ranking.ID
	var ranks []uint8
	spans, cols := make(map[ranking.Item]span), make(map[ranking.Item][]uint8)
	for _, it := range items {
		n := uint32(len(byItem[it]))
		spans[it] = span{off: uint32(len(ids)), n: n, cap: n}
		var col []uint8
		if 5*len(byItem[it]) >= len(coll) {
			col = make([]uint8, len(coll))
			cols[it] = col
		}
		for _, id := range byItem[it] {
			rank, _ := coll[id].Rank(it)
			ids, ranks = append(ids, id), append(ranks, uint8(rank))
			if col != nil {
				col[id] = uint8(rank) + 1
			}
		}
	}
	return ids, ranks, spans, cols
}

// TestParallelBuildMatchesSerial holds the build, at p = 1 to 4 chunks, to
// referenceBuild byte for byte — arenas, every span, the list count and
// every rank column — in one digit and in two (a domain past
// oneDigitItems). The inputs put items exactly on bucket edges, most
// postings in one bucket, dense items beside items past
// kernel.MaxDenseItems, no ranking or one, and k = 1 and k = 255.
func TestParallelBuildMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	collection := func(n, k int, item func() ranking.Item) []ranking.Ranking {
		rs := make([]ranking.Ranking, n)
		for i := range rs {
			for len(rs[i]) < k {
				if it := item(); !rs[i].Contains(it) {
					rs[i] = append(rs[i], it)
				}
			}
		}
		return rs
	}
	const two = oneDigitItems + 3<<bucketBits // a domain sorted in two digits
	// edge draws b·1024 − 1, b·1024 or b·1024 + 1.
	edge := func() ranking.Item {
		return ranking.Item((rng.Intn(two>>bucketBits)+1)<<bucketBits + rng.Intn(3) - 1)
	}
	head := func() ranking.Item { // nine postings in ten in bucket 0
		if rng.Intn(10) > 0 {
			return ranking.Item(rng.Intn(1 << bucketBits))
		}
		return ranking.Item(rng.Intn(two))
	}
	mixed := func(domain int) func() ranking.Item {
		return func() ranking.Item {
			if it := ranking.Item(rng.Intn(domain)); it%5 != 0 {
				return it
			}
			return kernel.MaxDenseItems + ranking.Item(rng.Intn(domain))
		}
	}
	colls := map[string][]ranking.Ranking{
		"one digit, sparse mixed":  collection(3000, 10, mixed(500)),
		"two digits, sparse mixed": collection(3000, 10, mixed(two)),
		"bucket edges":             append(collection(3000, 6, edge), ranking.Ranking{0, 1<<bucketBits - 1, 1 << bucketBits, two - 1, two, two + 1}),
		"one bucket holds most":    collection(3000, 10, head),
		"empty":                    nil,
		"one ranking":              {{two, 7, 1<<bucketBits - 1, kernel.MaxDenseItems + 1}},
		"k=1":                      collection(3000, 1, func() ranking.Item { return ranking.Item(rng.Intn(two)) }),
		"k=255":                    collection(40, 255, func() ranking.Item { return ranking.Item(rng.Intn(two)) }),
	}
	for name, coll := range colls {
		ids, ranks, spans, cols := referenceBuild(coll)
		top := 0 // the dense table reaches the largest dense item
		for it := range spans {
			if it < kernel.MaxDenseItems {
				top = max(top, int(it)+1)
			}
		}
		for p := 1; p <= 4; p++ {
			idx, err := buildP(kernel.NewStore(coll), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(idx.ids, ids) || !slices.Equal(idx.ranks, ranks) {
				t.Fatalf("%s, p=%d: the arenas differ from the reference", name, p)
			}
			if idx.NumLists() != len(spans) || len(idx.dense) != top || len(idx.dense)+len(idx.sparse) < len(spans) {
				t.Fatalf("%s, p=%d: %d lists in %d dense and %d sparse spans, want %d below %d",
					name, p, idx.NumLists(), len(idx.dense), len(idx.sparse), len(spans), top)
			}
			for it, want := range spans {
				if got := idx.lookup(it); got != want {
					t.Fatalf("%s, p=%d: item %d at %+v, want %+v", name, p, it, got, want)
				}
			}
			if len(idx.cols) != len(cols) {
				t.Fatalf("%s, p=%d: %d rank columns, want %d", name, p, len(idx.cols), len(cols))
			}
			for it, want := range cols {
				if !slices.Equal(idx.cols[it], want) {
					t.Fatalf("%s, p=%d: item %d's rank column differs", name, p, it)
				}
			}
		}
	}
}

// TestBuildWorkers: a whole-collection pass takes GOMAXPROCS workers, but
// one while the collection holds fewer than two chunks of minChunk rankings.
// However many workers the build is offered, its per-chunk count tables —
// one slot per dense item value — never outweigh the postings: over a domain
// wide against the collection it allocates as if it ran alone.
func TestBuildWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for n, want := range map[int]int{0: 1, 2*minChunk - 1: 1, 2 * minChunk: 2, 4 * minChunk: 4, 100 * minChunk: 4} {
		if got := workers(n); got != want {
			t.Errorf("workers(%d) = %d, want %d", n, got, want)
		}
	}

	wide := make([]ranking.Ranking, 2*minChunk)
	for i := range wide {
		wide[i] = ranking.Ranking{ranking.Item(25 * i), 1} // 200 000 item values, 16 384 postings
	}
	st := kernel.NewStore(wide)
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := buildP(st, 32, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<20 { // one chunk: 0.8 MB of table, 2.4 MB of spans
		t.Fatalf("a build offered 32 workers allocated %d bytes over 200 000 item values", least)
	}
}
