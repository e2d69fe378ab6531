package blocked

import (
	"math/rand"
	"testing"
	"testing/quick"

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

func TestBlockStructure(t *testing.T) {
	// Table 4 / Figure 4 of the paper: item 1's blocks.
	rs := []ranking.Ranking{
		{1, 2, 3, 4, 5}, {1, 2, 9, 8, 3}, {9, 8, 1, 2, 4}, {7, 1, 9, 4, 5},
		{6, 1, 5, 2, 3}, {4, 5, 1, 2, 3}, {1, 6, 2, 3, 7}, {7, 1, 6, 5, 2},
		{2, 5, 9, 8, 1}, {6, 3, 2, 1, 4},
	}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	// Item 1 at rank 0 in τ0, τ1, τ6.
	b0 := idx.Block(1, 0)
	if len(b0) != 3 || b0[0] != 0 || b0[1] != 1 || b0[2] != 6 {
		t.Fatalf("B_{1@0} = %v", b0)
	}
	// Item 1 at rank 1 in τ3, τ4, τ7 (paper also lists a τ10 we don't have).
	b1 := idx.Block(1, 1)
	if len(b1) != 3 {
		t.Fatalf("B_{1@1} = %v", b1)
	}
	// Item 1 at rank 4 in τ8.
	b4 := idx.Block(1, 4)
	if len(b4) != 1 || b4[0] != 8 {
		t.Fatalf("B_{1@4} = %v", b4)
	}
	// Item 3 at rank 1 only in τ9.
	if b := idx.Block(3, 1); len(b) != 1 || b[0] != 9 {
		t.Fatalf("B_{3@1} = %v", b)
	}
	// Out-of-range and unknown-item blocks are empty.
	if idx.Block(1, -1) != nil || idx.Block(1, 5) != nil || idx.Block(999, 0) != nil {
		t.Fatal("out-of-range block not nil")
	}
}

func TestBoundsExample(t *testing.T) {
	// Section 6.2 example: q=[7,6,3,9,5], index list of item 7 gives for τ3
	// and τ7 a match at τ-rank 0 = q-rank 0: L=0, U=20.
	l, u := Bounds(5, map[int]int{0: 0})
	if l != 0 || u != 20 {
		t.Fatalf("Bounds τ3: L=%d U=%d, want 0, 20", l, u)
	}
	// τ6: item 7 at τ-rank 4, q-rank 0: L=4. (The paper states U=24 by
	// counting k−r over the matched item's complement symmetrically; our U
	// uses the actual unoccupied τ-ranks {0,1,2,3}: 5+4+3+2 = 14 plus the
	// unmatched q-ranks {1,2,3,4}: 4+3+2+1 = 10, so U = 4+24 = 28 — a valid
	// and tighter-monotone variant; see TestBoundsValidMonotone.)
	l, u = Bounds(5, map[int]int{4: 0})
	if l != 4 || u != 4+14+10 {
		t.Fatalf("Bounds τ6: L=%d U=%d, want 4, 28", l, u)
	}
	// Full information: L = U = exact distance.
	l, u = Bounds(3, map[int]int{0: 0, 1: 2, 2: 1})
	if l != u || l != 2 {
		t.Fatalf("full info: L=%d U=%d, want 2, 2", l, u)
	}
}

// TestBoundsValidMonotone: revealing matches one by one keeps L ≤ F ≤ U,
// L non-decreasing, U non-increasing, and ends with L = U = F.
func TestBoundsValidMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		k := 3 + rng.Intn(10)
		q := randomRanking(rng, k, 3*k)
		tau := randomRanking(rng, k, 3*k)
		f := ranking.Footrule(q, tau)
		// Collect all matches.
		type match struct{ tr, qr int }
		var matches []match
		for qr, item := range q {
			if tr, ok := tau.Rank(item); ok {
				matches = append(matches, match{tr, qr})
			}
		}
		rng.Shuffle(len(matches), func(i, j int) { matches[i], matches[j] = matches[j], matches[i] })
		seen := map[int]int{}
		prevL, prevU := 0, 1<<30
		for step := 0; step <= len(matches); step++ {
			l, u := Bounds(k, seen)
			if l > f || u < f {
				t.Fatalf("bounds exclude truth: L=%d F=%d U=%d (step %d)", l, f, u, step)
			}
			if l < prevL {
				t.Fatalf("L decreased: %d -> %d", prevL, l)
			}
			if u > prevU {
				t.Fatalf("U increased: %d -> %d", prevU, u)
			}
			prevL, prevU = l, u
			if step < len(matches) {
				seen[matches[step].tr] = matches[step].qr
			}
		}
		// At full information the upper bound collapses to the exact
		// distance (the lower bound stays at the partial sum: it assumes
		// unseen items perfectly matched, which full information refutes —
		// that is precisely why resolution uses U, not L).
		if prevU != f {
			t.Fatalf("full info: U=%d, want F=%d", prevU, f)
		}
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	const k, v, n = 10, 50, 1200
	rs := randomCollection(2, n, k, v)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(3))
	for _, mode := range []Mode{Prune, PruneDrop} {
		for trial := 0; trial < 80; trial++ {
			q := randomRanking(rng, k, v)
			rawTheta := rng.Intn(ranking.MaxDistance(k))
			got, err := s.Query(q, rawTheta, nil, mode)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteResults(rs, q, rawTheta)
			if !equalResults(got, want) {
				t.Fatalf("mode=%d θ=%d: got %d, want %d results", mode, rawTheta, len(got), len(want))
			}
		}
	}
}

func TestQuerySmallThresholds(t *testing.T) {
	// Exact-match search (θ=0) is where blocked access shines: only the
	// diagonal blocks are read.
	rs := randomCollection(4, 800, 10, 40)
	rs = append(rs, rs[17].Clone()) // guarantee a duplicate result
	idx, _ := New(rs)
	s := NewSearcher(idx)
	for trial := 0; trial < 50; trial++ {
		q := rs[trial*13%len(rs)]
		got, err := s.Query(q, 0, nil, Prune)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteResults(rs, q, 0)
		if !equalResults(got, want) {
			t.Fatalf("exact match: got %v, want %v", got, want)
		}
	}
}

func TestQueryVariousK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 5, 20, 25} {
		rs := randomCollection(int64(k), 300, k, 4*k)
		idx, _ := New(rs)
		s := NewSearcher(idx)
		for trial := 0; trial < 25; trial++ {
			q := randomRanking(rng, k, 4*k)
			rawTheta := rng.Intn(ranking.MaxDistance(k))
			for _, mode := range []Mode{Prune, PruneDrop} {
				got, _ := s.Query(q, rawTheta, nil, mode)
				want := bruteResults(rs, q, rawTheta)
				if !equalResults(got, want) {
					t.Fatalf("k=%d θ=%d mode=%d: got %d want %d", k, rawTheta, mode, len(got), len(want))
				}
			}
		}
	}
}

func TestBlockSkippingSavesWork(t *testing.T) {
	// For a small threshold, early acceptance/rejection must leave DFC well
	// below the candidate count of a plain filter-and-validate.
	rs := randomCollection(6, 2000, 10, 60)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(7))
	var totalDFC, totalCands uint64
	for trial := 0; trial < 30; trial++ {
		q := randomRanking(rng, 10, 60)
		ev := metric.New(nil)
		if _, err := s.Query(q, 11, ev, Prune); err != nil {
			t.Fatal(err)
		}
		totalDFC += ev.Calls()
		totalCands += uint64(len(s.cands))
	}
	if totalDFC >= totalCands {
		t.Fatalf("bounds decided nothing: DFC=%d candidates=%d", totalDFC, totalCands)
	}
}

func TestEmptyAndMismatch(t *testing.T) {
	idx, _ := New(nil)
	s := NewSearcher(idx)
	if got, err := s.Query(ranking.Ranking{1, 2}, 3, nil, Prune); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	idx2, _ := New([]ranking.Ranking{{1, 2, 3}})
	s2 := NewSearcher(idx2)
	if _, err := s2.Query(ranking.Ranking{1, 2}, 3, nil, Prune); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if got, _ := s2.Query(ranking.Ranking{4, 5, 6}, -1, nil, Prune); got != nil {
		t.Fatal("negative threshold returned results")
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	rs := randomCollection(8, 400, 8, 30)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	f := func(seed int64, thSeed uint8, dropIt bool) bool {
		q := randomRanking(rand.New(rand.NewSource(seed)), 8, 30)
		rawTheta := int(thSeed) % ranking.MaxDistance(8)
		mode := Prune
		if dropIt {
			mode = PruneDrop
		}
		got, err := s.Query(q, rawTheta, nil, mode)
		if err != nil {
			return false
		}
		return equalResults(got, bruteResults(rs, q, rawTheta))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBlockedPrune(b *testing.B) {
	rs := randomCollection(20, 20000, 10, 2000)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	qs := randomCollection(21, 64, 10, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.Query(qs[i%len(qs)], 22, nil, Prune)
		sink = len(r)
	}
}

func BenchmarkBlockedPruneDrop(b *testing.B) {
	rs := randomCollection(20, 20000, 10, 2000)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	qs := randomCollection(21, 64, 10, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.Query(qs[i%len(qs)], 22, nil, PruneDrop)
		sink = len(r)
	}
}

var sink int
