package vptree

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
	if got := tr.RangeSearch(ranking.Ranking{1, 2}, 4, nil); len(got) != 0 {
		t.Fatalf("empty search: %v", got)
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	if _, err := New([]ranking.Ranking{{1, 2}, {1, 2, 3}}, nil); err == nil {
		t.Fatal("mixed sizes accepted")
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	for _, leaf := range []int{1, 4, 16} {
		rs := randomCollection(1, 900, 10, 50)
		tr, err := New(rs, nil, WithLeafSize(leaf))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 40; trial++ {
			q := randomRanking(rng, 10, 50)
			radius := rng.Intn(55)
			got := sorted(tr.RangeSearch(q, radius, nil))
			if want := bruteRange(rs, q, radius); !slices.Equal(got, want) {
				t.Fatalf("leaf=%d radius=%d:\n got %v\nwant %v", leaf, radius, got, want)
			}
		}
	}
}

func TestDuplicates(t *testing.T) {
	base := ranking.Ranking{1, 2, 3, 4, 5}
	rs := make([]ranking.Ranking, 60)
	for i := range rs {
		rs[i] = base.Clone()
	}
	tr, _ := New(rs, nil, WithLeafSize(2))
	if got := tr.RangeSearch(base, 0, nil); len(got) != 60 {
		t.Fatalf("found %d of 60 duplicates", len(got))
	}
}

func TestPruningReducesDFC(t *testing.T) {
	// Pruning requires distance spread; rankings over a tiny domain overlap
	// heavily, giving the tree usable ball separations. (On near-uniform
	// data distances concentrate close to dmax and metric trees degrade to
	// a scan — exactly the phenomenon Figure 6 of the paper shows.)
	rng := rand.New(rand.NewSource(3))
	rs := make([]ranking.Ranking, 3000)
	for i := range rs {
		rs[i] = randomRanking(rng, 10, 14)
	}
	tr, _ := New(rs, nil)
	ev := metric.New(nil)
	q := rs[0]
	tr.RangeSearch(q, 11, ev)
	if ev.Calls() >= uint64(len(rs)) {
		t.Fatalf("no pruning: %d DFC for %d objects", ev.Calls(), len(rs))
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
