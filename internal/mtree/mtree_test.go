package mtree

import (
	"math/rand"
	"slices"
	"testing"

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

func bruteRange(rs []ranking.Ranking, q ranking.Ranking, radius int) []ranking.Result {
	var out []ranking.Result
	for id, r := range rs {
		if d := ranking.Footrule(q, r); d <= radius {
			out = append(out, ranking.Result{ID: ranking.ID(id), Dist: d})
		}
	}
	return out
}

// sorted orders a walk's results by id for comparison with bruteRange.
func sorted(res []ranking.Result) []ranking.Result {
	ranking.SortResults(res)
	return res
}

func TestEmpty(t *testing.T) {
	tr, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatal("empty tree non-zero length")
	}
	if got := tr.RangeSearch(ranking.Ranking{1}, 3, nil); len(got) != 0 {
		t.Fatalf("search on empty: %v", got)
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	if _, err := New([]ranking.Ranking{{1, 2}, {1, 2, 3}}, nil); err == nil {
		t.Fatal("mixed sizes accepted")
	}
}

func TestSmallNoSplit(t *testing.T) {
	rs := randomCollection(1, 10, 8, 40)
	tr, err := New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for id, r := range rs {
		got := tr.RangeSearch(r, 0, nil)
		found := false
		for _, g := range got {
			if g == (ranking.Result{ID: ranking.ID(id)}) {
				found = true
			}
		}
		if !found {
			t.Fatalf("self %d not found", id)
		}
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	for _, cap := range []int{4, 8, 16} {
		rs := randomCollection(2, 1000, 10, 50)
		tr, err := New(rs, nil, WithCapacity(cap))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("capacity %d: %v", cap, err)
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 40; trial++ {
			q := randomRanking(rng, 10, 50)
			radius := rng.Intn(55)
			got := sorted(tr.RangeSearch(q, radius, nil))
			if want := bruteRange(rs, q, radius); !slices.Equal(got, want) {
				t.Fatalf("capacity=%d radius=%d:\n got %v\nwant %v", cap, radius, got, want)
			}
		}
	}
}

func TestDuplicates(t *testing.T) {
	base := ranking.Ranking{1, 2, 3, 4, 5}
	rs := make([]ranking.Ranking, 80)
	for i := range rs {
		rs[i] = base.Clone()
	}
	tr, err := New(rs, nil, WithCapacity(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.RangeSearch(base, 0, nil); len(got) != 80 {
		t.Fatalf("found %d of 80 duplicates", len(got))
	}
}

func TestBalanced(t *testing.T) {
	rs := randomCollection(4, 2000, 10, 60)
	tr, _ := New(rs, nil, WithCapacity(8))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err) // includes uniform leaf depth = balance
	}
	s := tr.Stats()
	if s.Height < 2 {
		t.Fatalf("2000 objects at capacity 8 should split: height=%d", s.Height)
	}
	if s.Entries < 2000 {
		t.Fatalf("entries %d < objects 2000", s.Entries)
	}
}

func TestPruningReducesDFC(t *testing.T) {
	rs := randomCollection(5, 3000, 10, 200)
	tr, _ := New(rs, nil)
	ev := metric.New(nil)
	q := randomRanking(rand.New(rand.NewSource(6)), 10, 200)
	tr.RangeSearch(q, 11, ev) // θ=0.1 → raw 11
	if ev.Calls() >= uint64(len(rs)) {
		t.Fatalf("no pruning: %d DFC for %d objects", ev.Calls(), len(rs))
	}
}

func TestNegativeRadius(t *testing.T) {
	rs := randomCollection(7, 100, 6, 30)
	tr, _ := New(rs, nil)
	if got := tr.RangeSearch(rs[0], -1, nil); len(got) != 0 {
		t.Fatalf("negative radius: %v", got)
	}
}

func TestCapacityClamped(t *testing.T) {
	rs := randomCollection(8, 200, 6, 30)
	tr, err := New(rs, nil, WithCapacity(1)) // clamps to 4
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sorted(tr.RangeSearch(rs[0], 10, nil)), bruteRange(rs, rs[0], 10)) {
		t.Fatal("tiny capacity tree returns wrong results")
	}
}

func BenchmarkBuild(b *testing.B) {
	rs := randomCollection(20, 2000, 10, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(rs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSearch(b *testing.B) {
	rs := randomCollection(21, 5000, 10, 100)
	tr, _ := New(rs, nil)
	qs := randomCollection(22, 64, 10, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(tr.RangeSearch(qs[i%len(qs)], 22, nil))
	}
}

var sink int
