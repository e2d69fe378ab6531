package invindex

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"topk/internal/bktree"
	"topk/internal/difftest"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

func randomRanking(rng *rand.Rand, k, v int) ranking.Ranking {
	r := make(ranking.Ranking, 0, k)
	seen := make(map[ranking.Item]struct{}, k)
	for len(r) < k {
		it := ranking.Item(rng.Intn(v))
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		r = append(r, it)
	}
	return r
}

func randomCollection(seed int64, n, k, v int) []ranking.Ranking {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]ranking.Ranking, n)
	for i := range rs {
		rs[i] = randomRanking(rng, k, v)
	}
	return rs
}

// bruteResults is the reference: full scan with exact distances.
func bruteResults(rs []ranking.Ranking, q ranking.Ranking, rawTheta int) []ranking.Result {
	var out []ranking.Result
	for id, r := range rs {
		if d := ranking.Footrule(q, r); d <= rawTheta {
			out = append(out, ranking.Result{ID: ranking.ID(id), Dist: d})
		}
	}
	ranking.SortResults(out)
	return out
}

// bruteOverlapping restricts the reference to rankings overlapping the
// query — what any inverted-index method can possibly return. For
// rawTheta < dmax the two references coincide (disjoint rankings are at
// exactly dmax).
func equalResults(a, b []ranking.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New([]ranking.Ranking{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("mixed sizes accepted")
	}
	if _, err := New([]ranking.Ranking{{1, 1, 2}}); err == nil {
		t.Fatal("duplicate items accepted")
	}
}

func TestEmptyIndex(t *testing.T) {
	idx, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(idx)
	got, err := s.FilterValidate(ranking.Ranking{1, 2, 3}, 10, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty index query: %v, %v", got, err)
	}
	got, err = s.ListMerge(ranking.Ranking{1, 2, 3}, 10, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty index merge: %v, %v", got, err)
	}
}

func TestQuerySizeMismatch(t *testing.T) {
	idx, _ := New([]ranking.Ranking{{1, 2, 3}})
	s := NewSearcher(idx)
	if _, err := s.FilterValidate(ranking.Ranking{1, 2}, 5, nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := s.ListMerge(ranking.Ranking{1, 2}, 5, nil); err == nil {
		t.Fatal("size mismatch accepted in merge")
	}
}

// posting is one (id, rank) entry of a posting list, as the tests compare
// them.
type posting struct {
	ID   ranking.ID
	Rank uint8
}

// postingsOf returns item's posting list as pairs (nil if unseen).
func postingsOf(idx *Index, it ranking.Item) []posting {
	ids, ranks := idx.Postings(it)
	var out []posting
	for j, id := range ids {
		out = append(out, posting{id, ranks[j]})
	}
	return out
}

func TestIndexStructure(t *testing.T) {
	rs := []ranking.Ranking{{2, 5, 4, 3}, {1, 4, 5, 9}, {0, 8, 5, 7}} // Table 1
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 3 || idx.K() != 4 {
		t.Fatalf("Len=%d K=%d", idx.Len(), idx.K())
	}
	l5 := postingsOf(idx, 5)
	if len(l5) != 3 {
		t.Fatalf("item 5 list: %v", l5)
	}
	// Item 5 at ranks 1, 2, 2 in τ1..τ3, postings id-sorted.
	want := []posting{{0, 1}, {1, 2}, {2, 2}}
	for i, p := range l5 {
		if p != want[i] {
			t.Fatalf("posting %d = %v, want %v", i, p, want[i])
		}
	}
	if postingsOf(idx, 42) != nil {
		t.Fatal("unseen item has a list")
	}
	total := 0
	idx.EachList(func(it ranking.Item, l []ranking.ID, _ []uint8) {
		total += len(l)
		if len(l) > len(l5) { // item 5 is the most frequent
			t.Fatalf("item %d has %d postings, more than item 5", it, len(l))
		}
	})
	if total != 12 {
		t.Fatalf("lists hold %d postings, want 12", total)
	}
}

func TestFilterValidateMatchesBruteForce(t *testing.T) {
	const k, v, n = 10, 60, 1200
	rs := randomCollection(1, n, k, v)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(2))
	dmax := ranking.MaxDistance(k)
	for trial := 0; trial < 80; trial++ {
		q := randomRanking(rng, k, v)
		rawTheta := rng.Intn(dmax) // < dmax: disjoint rankings excluded
		got, err := s.FilterValidate(q, rawTheta, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteResults(rs, q, rawTheta)
		if !equalResults(got, want) {
			t.Fatalf("θ=%d: got %d, want %d results", rawTheta, len(got), len(want))
		}
	}
}

func TestFilterValidateDropSafeMatchesBruteForce(t *testing.T) {
	const k, v, n = 10, 50, 1200
	rs := randomCollection(3, n, k, v)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 120; trial++ {
		q := randomRanking(rng, k, v)
		rawTheta := rng.Intn(ranking.MaxDistance(k))
		got, err := s.FilterValidateDrop(q, rawTheta, nil, DropSafe)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteResults(rs, q, rawTheta)
		if !equalResults(got, want) {
			t.Fatalf("θ=%d dropped=%d: got %d, want %d results",
				rawTheta, k-len(s.chooseKeptLists(q, rawTheta, DropSafe)), len(got), len(want))
		}
	}
}

func TestDropActuallyDrops(t *testing.T) {
	rs := randomCollection(5, 500, 10, 40)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	q := randomRanking(rand.New(rand.NewSource(6)), 10, 40)
	// θ = 0.1 → raw 11 → ω = RequiredOverlap(11,10).
	omega := ranking.RequiredOverlap(11, 10)
	if omega < 2 {
		t.Fatalf("expected ω ≥ 2 for θ=0.1, k=10; got %d", omega)
	}
	dropped := func(rawTheta int, mode DropMode) int { return len(q) - len(s.chooseKeptLists(q, rawTheta, mode)) }
	if got := dropped(11, DropSafe); got != omega-1 {
		t.Fatalf("DropSafe drops %d, want ω-1=%d", got, omega-1)
	}
	if got := dropped(11, DropAggressive); got != omega {
		t.Fatalf("DropAggressive drops %d, want ω=%d", got, omega)
	}
	// Threshold-agnostic case: θ ≥ dmax-ish keeps all lists.
	if got := dropped(ranking.MaxDistance(10), DropSafe); got != 0 {
		t.Fatalf("θ=dmax should drop nothing, dropped %d", got)
	}
}

func TestDropSavesListAccesses(t *testing.T) {
	// With a skewed collection the dropped lists are the longest ones, so
	// the candidate set (≈ validation DFC) must shrink.
	rng := rand.New(rand.NewSource(7))
	rs := make([]ranking.Ranking, 800)
	for i := range rs {
		// Heavy skew: items 0..4 appear in nearly every ranking.
		r := make(ranking.Ranking, 0, 10)
		seen := map[ranking.Item]struct{}{}
		for len(r) < 5 {
			it := ranking.Item(rng.Intn(8))
			if _, d := seen[it]; d {
				continue
			}
			seen[it] = struct{}{}
			r = append(r, it)
		}
		for len(r) < 10 {
			it := ranking.Item(100 + rng.Intn(2000))
			if _, d := seen[it]; d {
				continue
			}
			seen[it] = struct{}{}
			r = append(r, it)
		}
		rs[i] = r
	}
	idx, _ := New(rs)
	s := NewSearcher(idx)
	q := rs[0]
	evFull := metric.New(nil)
	evDrop := metric.New(nil)
	if _, err := s.FilterValidate(q, 11, evFull); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FilterValidateDrop(q, 11, evDrop, DropSafe); err != nil {
		t.Fatal(err)
	}
	if evDrop.Calls() >= evFull.Calls() {
		t.Fatalf("drop did not reduce DFC: %d vs %d", evDrop.Calls(), evFull.Calls())
	}
}

func TestListMergeMatchesBruteForce(t *testing.T) {
	const k, v, n = 10, 50, 1000
	rs := randomCollection(8, n, k, v)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 80; trial++ {
		q := randomRanking(rng, k, v)
		rawTheta := rng.Intn(ranking.MaxDistance(k))
		got, err := s.ListMerge(q, rawTheta, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteResults(rs, q, rawTheta)
		if !equalResults(got, want) {
			t.Fatalf("θ=%d: merge got %d, want %d results", rawTheta, len(got), len(want))
		}
	}
}

func TestListMergeVariousK(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, k := range []int{1, 2, 5, 20, 25} {
		rs := randomCollection(int64(k), 300, k, 4*k)
		idx, _ := New(rs)
		s := NewSearcher(idx)
		for trial := 0; trial < 20; trial++ {
			q := randomRanking(rng, k, 4*k)
			rawTheta := rng.Intn(ranking.MaxDistance(k))
			got, _ := s.ListMerge(q, rawTheta, nil)
			want := bruteResults(rs, q, rawTheta)
			if !equalResults(got, want) {
				t.Fatalf("k=%d θ=%d: got %d want %d", k, rawTheta, len(got), len(want))
			}
		}
	}
}

func TestListMergeExactDistances(t *testing.T) {
	// The on-the-fly formula must yield exact Footrule values.
	rs := randomCollection(11, 400, 10, 40)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		q := randomRanking(rng, 10, 40)
		got, _ := s.ListMerge(q, ranking.MaxDistance(10)-1, nil)
		for _, r := range got {
			if want := ranking.Footrule(q, rs[r.ID]); r.Dist != want {
				t.Fatalf("merge distance %d, Footrule %d for id %d", r.Dist, want, r.ID)
			}
		}
	}
}

func TestMinimalFV(t *testing.T) {
	rs := randomCollection(13, 600, 10, 40)
	queries := randomCollection(14, 20, 10, 40)
	thetas := []int{0, 11, 22, 33}
	m := BuildMinimal(rs, queries, thetas)
	if m.Lists() != len(queries)*len(thetas) {
		t.Fatalf("materialized %d lists", m.Lists())
	}
	for _, q := range queries {
		for _, th := range thetas {
			ev := metric.New(nil)
			got, ok := m.Query(q, th, ev)
			if !ok {
				t.Fatal("workload query not materialized")
			}
			want := bruteResults(rs, q, th)
			if !equalResults(got, want) {
				t.Fatalf("θ=%d: got %d want %d", th, len(got), len(want))
			}
			if ev.Calls() != uint64(len(want)) {
				t.Fatalf("oracle DFC = %d, want exactly |results| = %d", ev.Calls(), len(want))
			}
		}
	}
	if _, ok := m.Query(randomRanking(rand.New(rand.NewSource(15)), 10, 40), 11, nil); ok {
		t.Fatal("non-workload query answered")
	}
}

// TestDropAggressiveBoundary verifies the reproduction finding documented
// on DropAggressive: the k−ω variant of Lemma 2 can miss a true result
// whose overlap with the query is exactly ω in a non-top-ω configuration,
// whenever rawTheta ≥ L(k,ω)+2. We construct that adversarial instance and
// check (a) DropSafe finds it, (b) any ranking DropAggressive misses has
// exactly the predicted structure.
func TestDropAggressiveBoundary(t *testing.T) {
	const k = 10
	rawTheta := 33 // θ=0.3: ω=5, L(10,5)=30, 30+2 ≤ 33 → gap region
	omega := ranking.RequiredOverlap(rawTheta, k)
	if l := ranking.MinDistanceOverlap(k, omega); rawTheta < l+2 {
		t.Skipf("threshold %d not in the gap region (L=%d)", rawTheta, l)
	}
	q := ranking.Ranking{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// τ shares q-positions {0,1,2,3,5} (skipping 4 — a top-ω position),
	// perfectly matched at τ's top, disjoint tail: F = L(k,ω)+2.
	tau := ranking.Ranking{0, 1, 2, 3, 5, 100, 101, 102, 103, 104}
	if d := ranking.Footrule(q, tau); d != ranking.MinDistanceOverlap(k, omega)+2 {
		t.Fatalf("adversarial distance = %d, want %d", d, ranking.MinDistanceOverlap(k, omega)+2)
	}
	// Fill the collection so that τ's shared items own the longest lists
	// (they get dropped) while position 4's list stays short but kept.
	rng := rand.New(rand.NewSource(16))
	rs := []ranking.Ranking{tau}
	for i := 0; i < 300; i++ {
		r := ranking.Ranking{0, 1, 2, 3, 5}
		seen := map[ranking.Item]struct{}{0: {}, 1: {}, 2: {}, 3: {}, 5: {}}
		for len(r) < k {
			it := ranking.Item(200 + rng.Intn(5000))
			if _, d := seen[it]; d {
				continue
			}
			seen[it] = struct{}{}
			r = append(r, it)
		}
		rng.Shuffle(k, func(a, b int) { r[a], r[b] = r[b], r[a] })
		rs = append(rs, r)
	}
	idx, _ := New(rs)
	s := NewSearcher(idx)
	safe, _ := s.FilterValidateDrop(q, rawTheta, nil, DropSafe)
	aggr, _ := s.FilterValidateDrop(q, rawTheta, nil, DropAggressive)
	want := bruteResults(rs, q, rawTheta)
	if !equalResults(safe, want) {
		t.Fatalf("DropSafe wrong: got %d want %d", len(safe), len(want))
	}
	// Aggressive must be a subset of the truth (no false positives)…
	truth := map[ranking.ID]bool{}
	for _, r := range want {
		truth[r.ID] = true
	}
	got := map[ranking.ID]bool{}
	for _, r := range aggr {
		if !truth[r.ID] {
			t.Fatalf("aggressive returned false positive %d", r.ID)
		}
		got[r.ID] = true
	}
	// …and every miss must have the predicted boundary structure.
	for _, r := range want {
		if got[r.ID] {
			continue
		}
		tauM := rs[r.ID]
		if ov := q.Overlap(tauM); ov != omega {
			t.Fatalf("missed ranking %d has overlap %d, prediction says exactly ω=%d", r.ID, ov, omega)
		}
		if r.Dist < ranking.MinDistanceOverlap(k, omega)+2 {
			t.Fatalf("missed ranking %d at distance %d below the gap", r.ID, r.Dist)
		}
	}
}

// TestSearcherReuseAcrossQueries isolates consecutive queries on one
// searcher: every algorithm runs on the one accumulator and must leave it all
// zero — nothing else ever resets it — so the next query, whatever its
// algorithm, starts clean.
func TestSearcherReuseAcrossQueries(t *testing.T) {
	rs := randomCollection(17, 400, 10, 40)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	o := difftest.NewOracle(rs)
	rng := rand.New(rand.NewSource(18))
	algos := map[string]func(q ranking.Ranking, raw int) (got, want []ranking.Result, err error){
		"F&V": func(q ranking.Ranking, raw int) ([]ranking.Result, []ranking.Result, error) {
			got, err := s.FilterValidate(q, raw, nil)
			return got, o.SearchRaw(q, raw), err
		},
		"F&V+Drop": func(q ranking.Ranking, raw int) ([]ranking.Result, []ranking.Result, error) {
			got, err := s.FilterValidateDrop(q, raw, nil, DropSafe)
			return got, o.SearchRaw(q, raw), err
		},
		"ListMerge": func(q ranking.Ranking, raw int) ([]ranking.Result, []ranking.Result, error) {
			got, err := s.ListMerge(q, raw, nil)
			return got, o.SearchRaw(q, raw), err
		},
		"KNN": func(q ranking.Ranking, _ int) ([]ranking.Result, []ranking.Result, error) {
			got, err := s.NearestNeighbors(q, 5, nil)
			return got, o.NearestNeighbors(q, 5), err
		},
	}
	for trial := 0; trial < 50; trial++ {
		q := randomRanking(rng, 10, 40)
		rawTheta := rng.Intn(100)
		for name, run := range algos {
			got, want, err := run(q, rawTheta)
			if err != nil {
				t.Fatal(err)
			}
			if !difftest.Equal(got, want) {
				t.Fatalf("trial %d: %s read stale searcher state", trial, name)
			}
			if !accClean(s) {
				t.Fatalf("trial %d: %s left the accumulator dirty", trial, name)
			}
		}
	}
}

func BenchmarkFilterValidate(b *testing.B) {
	rs := randomCollection(20, 20000, 10, 2000)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	qs := randomCollection(21, 64, 10, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.FilterValidate(qs[i%len(qs)], 22, nil)
		sink = len(r)
	}
}

func BenchmarkFilterValidateDrop(b *testing.B) {
	rs := randomCollection(20, 20000, 10, 2000)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	qs := randomCollection(21, 64, 10, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.FilterValidateDrop(qs[i%len(qs)], 22, nil, DropSafe)
		sink = len(r)
	}
}

func BenchmarkListMerge(b *testing.B) {
	rs := randomCollection(20, 20000, 10, 2000)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	qs := randomCollection(21, 64, 10, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.ListMerge(qs[i%len(qs)], 22, nil)
		sink = len(r)
	}
}

var sink int

// TestSizeEstimatesOrdered pins Table 6's ordering: the augmented index is
// strictly larger than the plain one, and a BK-tree (rankings + structure
// only) is smaller than the plain inverted index (rankings + postings).
func TestSizeEstimatesOrdered(t *testing.T) {
	rs := randomCollection(7, 2000, 10, 500)
	idx, _ := New(rs)
	tr, _ := bktree.New(rs, nil)
	plain, aug, tree := idx.SizeBytes(false), idx.SizeBytes(true), tr.SizeBytes()
	if plain <= 0 || aug <= 0 || tree <= 0 {
		t.Fatal("non-positive size estimate")
	}
	if aug <= plain {
		t.Fatalf("augmented (%d) not larger than plain (%d)", aug, plain)
	}
	if tree >= plain {
		t.Fatalf("BK-tree (%d) not smaller than plain index (%d)", tree, plain)
	}
}

// TestByListLengthOrder pins the order the query's lists are read and dropped
// in: longest first, equal lengths by ascending position, unseen items' empty
// lists last — a stable sort of the positions. F&V+Drop drops a prefix of it,
// so it decides the kept lists and the DFC. The query is long enough, and
// tied enough, that an unstable sort breaks the order.
func TestByListLengthOrder(t *testing.T) {
	const k = 20
	length := func(p int) int { return []int{2, 3, 0, 1, 3, 2}[p%6] }
	q := make(ranking.Ranking, k)
	for p := range q {
		q[p] = ranking.Item(p)
	}
	q[4], q[8] = kernel.MaxDenseItems+4, kernel.MaxDenseItems+8 // a sparse list, a sparse unseen item
	rs := make([]ranking.Ranking, 3)
	for j := range rs {
		for p, it := range q {
			if length(p) > j {
				rs[j] = append(rs[j], it)
			}
		}
		for f := 0; len(rs[j]) < k; f++ {
			rs[j] = append(rs[j], ranking.Item(1000+100*j+f))
		}
	}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, k)
	for p := range want {
		want[p] = p
	}
	slices.SortStableFunc(want, func(a, b int) int { return length(b) - length(a) })
	s := NewSearcher(idx)
	if got := s.byListLength(q); !slices.Equal(got, want) {
		t.Fatalf("byListLength = %v, want %v", got, want)
	}
	rawTheta := ranking.RawThreshold(0.1, k)
	drop := ranking.RequiredOverlap(rawTheta, k) - 1
	if length(want[drop-1]) != length(want[drop]) {
		t.Fatalf("the DropSafe cut at %d does not split a tie", drop)
	}
	if got := s.chooseKeptLists(q, rawTheta, DropSafe); !slices.Equal(got, want[drop:]) {
		t.Fatalf("DropSafe keeps %v, want %v", got, want[drop:])
	}
}

// TestQueryRejectsRepeatedItem: every searcher algorithm refuses a query that
// repeats an item, either side of ranking.Validate's pairwise cutoff.
func TestQueryRejectsRepeatedItem(t *testing.T) {
	for _, k := range []int{10, 25} {
		rs := randomCollection(int64(k), 50, k, 4*k)
		idx, err := New(rs)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSearcher(idx)
		q := rs[0].Clone()
		q[k-1] = q[k/2]
		algs := map[string]func() ([]ranking.Result, error){
			"F&V":              func() ([]ranking.Result, error) { return s.FilterValidate(q, 20, nil) },
			"F&V+Drop":         func() ([]ranking.Result, error) { return s.FilterValidateDrop(q, 20, nil, DropSafe) },
			"ListMerge":        func() ([]ranking.Result, error) { return s.ListMerge(q, 20, nil) },
			"NearestNeighbors": func() ([]ranking.Result, error) { return s.NearestNeighbors(q, 5, nil) },
		}
		for name, run := range algs {
			if _, err := run(); !errors.Is(err, ranking.ErrDuplicateItem) {
				t.Errorf("k=%d %s: err = %v, want ErrDuplicateItem", k, name, err)
			}
		}
	}
}
