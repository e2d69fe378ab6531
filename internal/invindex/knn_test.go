package invindex

import (
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// accClean reports whether the searcher's accumulator is all zero — the
// invariant every NearestNeighbors call must restore through its touched
// list, since nothing ever resets the array wholesale.
func accClean(s *Searcher) bool {
	for _, v := range s.acc {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestNearestNeighborsOneSearcher drives a single searcher through a
// growing, shrinking collection: after every batch of inserts and deletes its
// answers must equal the linear-scan oracle's for several k (up to the uint8
// rank limit's neighborhood, where the uint16 accumulator is fullest), and
// the accumulator must be left clean and grown to the collection.
func TestNearestNeighborsOneSearcher(t *testing.T) {
	for _, k := range []int{1, 2, 10, 40, 200} {
		domain := 3*k + 5
		rng := rand.New(rand.NewSource(int64(k)))
		rs := difftest.RandomCollection(rng, 120, k, domain)
		idx, err := New(rs)
		if err != nil {
			t.Fatal(err)
		}
		o := difftest.NewOracle(rs)
		s := NewSearcher(idx)
		for round := 0; round < 4; round++ {
			for trial := 0; trial < 12; trial++ {
				q := difftest.RandomRanking(rng, k, domain)
				if trial%3 == 0 {
					q = rs[rng.Intn(len(rs))]
				}
				for _, n := range []int{1, 7, o.Len(), o.Len() + 3} {
					got, err := s.NearestNeighbors(q, n, nil)
					if err != nil {
						t.Fatal(err)
					}
					if want := o.NearestNeighbors(q, n); !difftest.Equal(got, want) {
						t.Fatalf("k=%d round %d n=%d:\n got %v\nwant %v", k, round, n, got, want)
					}
					if !accClean(s) || len(s.acc) != idx.Len() {
						t.Fatalf("k=%d: accumulator dirty or short (%d cells, %d rankings)", k, len(s.acc), idx.Len())
					}
				}
			}
			for i := 0; i < 40; i++ {
				r := difftest.RandomRanking(rng, k, domain)
				if _, err := idx.Insert(r); err != nil {
					t.Fatal(err)
				}
				o.Insert(r)
			}
			for _, id := range o.LiveIDs() {
				if rng.Intn(4) == 0 && o.Len() > 1 {
					if err := idx.Delete(id); err != nil {
						t.Fatal(err)
					}
					if err := o.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestNearestNeighborsExternalOrder hands the searcher a scrambled
// internal→external id map: ties must be cut by the external id — in the
// selection over overlapping rankings and in the dmax fill alike — while the
// returned ids stay internal.
func TestNearestNeighborsExternalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rs := difftest.RandomCollection(rng, 150, 5, 25)
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	ext := make([]ranking.ID, len(rs))
	slots := make([]ranking.Ranking, len(rs))
	for internal, e := range rng.Perm(len(rs)) {
		ext[internal] = ranking.ID(e)
		slots[e] = rs[internal]
	}
	o := difftest.NewOracle(slots) // the collection as seen through external ids
	s := NewSearcher(idx)
	queries := []ranking.Ranking{rs[3], rs[77], {900, 901, 902, 903, 904}}
	for i := 0; i < 10; i++ {
		queries = append(queries, difftest.RandomRanking(rng, 5, 25))
	}
	for _, q := range queries {
		for _, n := range []int{1, 6, 30, 150} {
			got, err := s.NearestNeighbors(q, n, ext)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				got[i].ID = ext[got[i].ID]
			}
			if want := o.NearestNeighbors(q, n); !difftest.Equal(got, want) {
				t.Fatalf("n=%d q=%v:\n got %v\nwant %v", n, q, got, want)
			}
		}
	}
}

// TestNearestNeighborsAllocatesOnlyTheResult holds a warmed-up searcher to
// one allocation per query, past the k at which ranking.Validate starts
// allocating a map.
func TestNearestNeighborsAllocatesOnlyTheResult(t *testing.T) {
	for _, k := range []int{10, 25} {
		rng := rand.New(rand.NewSource(2))
		rs := difftest.RandomCollection(rng, 2000, k, 400)
		idx, err := New(rs)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSearcher(idx)
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.NearestNeighbors(rs[i%len(rs)], 10, nil); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 1 {
			t.Errorf("k=%d: %.0f allocs per query, want 1 (the returned slice)", k, allocs)
		}
	}
}

// TestFilterValidateDropAllocatesOnlyTheResult holds the hybrid's default
// range route to the same budget: list choice and query check run on searcher
// scratch.
func TestFilterValidateDropAllocatesOnlyTheResult(t *testing.T) {
	for _, k := range []int{10, 25} {
		rng := rand.New(rand.NewSource(2))
		rs := difftest.RandomCollection(rng, 2000, k, 400)
		idx, err := New(rs)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSearcher(idx)
		ev := metric.New(nil)
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.FilterValidateDrop(rs[i%len(rs)], ranking.MaxDistance(k)/5, ev, DropSafe); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 1 {
			t.Errorf("k=%d: %.0f allocs per query, want 1 (the returned slice)", k, allocs)
		}
	}
}

func BenchmarkNearestNeighbors(b *testing.B) {
	rs := randomCollection(31, 20000, 10, 2000)
	idx, _ := New(rs)
	s := NewSearcher(idx)
	qs := randomCollection(32, 64, 10, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.NearestNeighbors(qs[i%len(qs)], 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}
