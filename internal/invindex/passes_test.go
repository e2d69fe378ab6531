package invindex

import (
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// checkRange runs every range algorithm on s at rawTheta and holds each to
// the oracle.
func checkRange(t *testing.T, what string, s *Searcher, o *difftest.Oracle, q ranking.Ranking, rawTheta int) {
	t.Helper()
	want := o.SearchRaw(q, rawTheta)
	for name, run := range map[string]func() ([]ranking.Result, error){
		"F&V":       func() ([]ranking.Result, error) { return s.FilterValidate(q, rawTheta, nil) },
		"F&V+Drop":  func() ([]ranking.Result, error) { return s.FilterValidateDrop(q, rawTheta, nil, DropSafe) },
		"ListMerge": func() ([]ranking.Result, error) { return s.ListMerge(q, rawTheta, nil) },
	} {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %s: %v", what, name, err)
		}
		if !difftest.Equal(got, want) {
			t.Fatalf("%s: %s = %v, want %v", what, name, got, want)
		}
	}
}

// TestRowAndHeadPasses holds the range algorithms to the oracle at the edges
// of the two load passes: validate's, which reads each candidate's first and
// last item in the store, and accumulate's, which reads the first posting of
// every list it walks.
func TestRowAndHeadPasses(t *testing.T) {
	t.Run("last row", func(t *testing.T) {
		// New sizes the arena exactly: the pass reads its final item.
		rs := randomCollection(3, 200, 10, 60)
		idx, _ := New(rs)
		if got := len(idx.store.Flat()); got != 200*10 {
			t.Fatalf("arena holds %d items, want exactly %d", got, 200*10)
		}
		s, o := NewSearcher(idx), difftest.NewOracle(rs)
		for _, raw := range []int{0, 20, 60} {
			checkRange(t, "query = last ranking", s, o, rs[len(rs)-1], raw)
		}
	})
	t.Run("inserted after the previous query", func(t *testing.T) {
		rs := randomCollection(4, 50, 8, 40)
		idx, _ := New(rs)
		s, o := NewSearcher(idx), difftest.NewOracle(rs)
		rng := rand.New(rand.NewSource(5))
		for range 20 {
			checkRange(t, "before insert", s, o, rs[0], 16)
			// Enough inserts to move the store's arena.
			var r ranking.Ranking
			for range 60 {
				r = randomRanking(rng, 8, 40)
				if _, err := idx.Insert(r); err != nil {
					t.Fatal(err)
				}
				o.Insert(r)
			}
			checkRange(t, "query = newest ranking", s, o, r, 16)
		}
	})
	t.Run("k=1", func(t *testing.T) {
		rs := randomCollection(6, 100, 1, 12)
		idx, _ := New(rs)
		s, o := NewSearcher(idx), difftest.NewOracle(rs)
		for it := range ranking.Item(14) { // 12 and 13 are unseen
			for _, raw := range []int{0, 1} {
				checkRange(t, "k=1", s, o, ranking.Ranking{it}, raw)
			}
		}
	})
	t.Run("empty kept list", func(t *testing.T) {
		rs := randomCollection(7, 150, 6, 30)
		idx, _ := New(rs)
		s, o := NewSearcher(idx), difftest.NewOracle(rs)
		// Items 30 and above are unseen: their lists are the shortest, so
		// F&V+Drop always keeps them.
		for _, q := range []ranking.Ranking{{100, 101, 102, 103, 104, 105}, {rs[0][0], rs[0][1], 100, 101, 102, 103}} {
			for _, raw := range []int{4, 20, 41} {
				checkRange(t, "unseen items", s, o, q, raw)
			}
		}
		// No index list has a posting: the arenas are empty.
		empty, _ := New(nil)
		checkRange(t, "empty index", NewSearcher(empty), difftest.NewOracle(nil), ranking.Ranking{1, 2, 3}, 10)
	})
	t.Run("tombstoned candidates", func(t *testing.T) {
		rs := randomCollection(8, 120, 8, 30)
		idx, _ := New(rs)
		s, o := NewSearcher(idx), difftest.NewOracle(rs)
		q := rs[7]
		// Delete the query's own ranking and every third one near it, and the
		// last row, so touched and undecided ids are tombstones.
		for _, r := range o.SearchRaw(q, 40) {
			if r.ID%3 == 0 || r.ID == 7 {
				if err := idx.Delete(r.ID); err != nil {
					t.Fatal(err)
				}
				if err := o.Delete(r.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := idx.Delete(119); err != nil {
			t.Fatal(err)
		}
		if err := o.Delete(119); err != nil {
			t.Fatal(err)
		}
		for _, raw := range []int{0, 20, 40, 71} {
			checkRange(t, "tombstones", s, o, q, raw)
			checkRange(t, "tombstoned last row", s, o, rs[119], raw)
		}
	})
}
