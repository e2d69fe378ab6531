package adaptsearch

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

func TestEmptyAndErrors(t *testing.T) {
	idx, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(idx)
	if got, err := s.Query(ranking.Ranking{1, 2}, 5, nil); err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
	if _, err := New([]ranking.Ranking{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("mixed sizes accepted")
	}
	long := make(ranking.Ranking, 256)
	for i := range long {
		long[i] = ranking.Item(i)
	}
	if _, err := New([]ranking.Ranking{long}); err == nil {
		t.Fatal("k = 256 accepted, past the kernel's uint8 rank range")
	}
	if _, err := New([]ranking.Ranking{long[:255]}); err != nil {
		t.Fatalf("k = 255 refused: %v", err)
	}
	idx2, _ := New([]ranking.Ranking{{1, 2, 3}})
	s2 := NewSearcher(idx2)
	if _, err := s2.Query(ranking.Ranking{1, 2}, 5, nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if got, _ := s2.Query(ranking.Ranking{4, 5, 6}, -1, nil); got != nil {
		t.Fatal("negative threshold returned results")
	}
}

func TestSortedByFrequency(t *testing.T) {
	rs := []ranking.Ranking{{1, 2, 3}, {1, 2, 4}, {1, 5, 6}}
	idx, _ := New(rs)
	// Item 1 (freq 3) must sort last within each record.
	for id, sorted := range idx.sorted {
		if sorted[len(sorted)-1] != 1 {
			t.Fatalf("record %d sorted %v: most frequent item not last", id, sorted)
		}
	}
	if idx.TotalPostings() != 9 {
		t.Fatalf("TotalPostings = %d", idx.TotalPostings())
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	const k, v, n = 10, 50, 1200
	rs := randomCollection(1, n, k, v)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		q := randomRanking(rng, k, v)
		rawTheta := rng.Intn(ranking.MaxDistance(k)) // < dmax
		got, err := s.Query(q, rawTheta, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteResults(rs, q, rawTheta)
		if !equalResults(got, want) {
			t.Fatalf("θ=%d: got %d, want %d results", rawTheta, len(got), len(want))
		}
	}
}

func TestQueryWithUnseenItems(t *testing.T) {
	// Query items absent from the corpus must not break the prefix order.
	rs := randomCollection(3, 300, 10, 40)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	q := ranking.Ranking{1000, 1001, 1002, 1003, 1004, 0, 1, 2, 3, 4}
	for _, th := range []int{11, 33, 77} {
		got, err := s.Query(q, th, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !equalResults(got, bruteResults(rs, q, th)) {
			t.Fatalf("θ=%d wrong with unseen items", th)
		}
	}
}

func TestVariousK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{1, 2, 5, 20} {
		rs := randomCollection(int64(k), 300, k, 4*k)
		idx, _ := New(rs)
		s := NewSearcher(idx)
		for trial := 0; trial < 25; trial++ {
			q := randomRanking(rng, k, 4*k)
			rawTheta := rng.Intn(ranking.MaxDistance(k))
			got, _ := s.Query(q, rawTheta, nil)
			want := bruteResults(rs, q, rawTheta)
			if !equalResults(got, want) {
				t.Fatalf("k=%d θ=%d: got %d want %d", k, rawTheta, len(got), len(want))
			}
		}
	}
}

func TestPrefixFilteringPrunes(t *testing.T) {
	// On skewed data the prefix filter must verify far fewer candidates
	// than a full filter-and-validate would (which touches every ranking
	// sharing any item).
	rng := rand.New(rand.NewSource(5))
	rs := make([]ranking.Ranking, 2000)
	for i := range rs {
		r := make(ranking.Ranking, 0, 10)
		seen := map[ranking.Item]struct{}{}
		for len(r) < 3 { // 3 super-frequent items
			it := ranking.Item(rng.Intn(5))
			if _, d := seen[it]; d {
				continue
			}
			seen[it] = struct{}{}
			r = append(r, it)
		}
		for len(r) < 10 {
			it := ranking.Item(100 + rng.Intn(20000))
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
	ev := metric.New(nil)
	q := rs[0]
	if _, err := s.Query(q, 11, ev); err != nil {
		t.Fatal(err)
	}
	// Nearly every ranking shares one of the 5 frequent items with q; the
	// prefix filter must not verify them all.
	if ev.Calls() > uint64(len(rs))/2 {
		t.Fatalf("prefix filter verified %d of %d rankings", ev.Calls(), len(rs))
	}
}

func TestMaxSchemesRespected(t *testing.T) {
	rs := randomCollection(6, 500, 10, 60)
	idx, _ := New(rs)
	idx.MaxSchemes = 1
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		q := randomRanking(rng, 10, 60)
		th := rng.Intn(100)
		got, _ := s.Query(q, th, nil)
		if !equalResults(got, bruteResults(rs, q, th)) {
			t.Fatalf("MaxSchemes=1 broke correctness at θ=%d", th)
		}
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	rs := randomCollection(8, 400, 8, 30)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	f := func(seed int64, thSeed uint8) bool {
		q := randomRanking(rand.New(rand.NewSource(seed)), 8, 30)
		rawTheta := int(thSeed) % ranking.MaxDistance(8)
		got, err := s.Query(q, rawTheta, nil)
		if err != nil {
			return false
		}
		return equalResults(got, bruteResults(rs, q, rawTheta))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdaptSearch(b *testing.B) {
	rs := randomCollection(20, 20000, 10, 2000)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	qs := randomCollection(21, 64, 10, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.Query(qs[i%len(qs)], 22, nil)
		sink = len(r)
	}
}

var sink int
