package invindex

import (
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// checkColumns holds every rank column to its list — 1 + rank at each
// posting's id, 0 everywhere else — and to the size rule 5·len(list) ≥
// len(column). With built set (an index fresh from its build) a list must
// have a column exactly when it covers a fifth of the collection.
func checkColumns(t *testing.T, idx *Index, built bool) {
	t.Helper()
	idx.EachList(func(it ranking.Item, ids []ranking.ID, ranks []uint8) {
		col, ok := idx.cols[it]
		if built && ok != (5*len(ids) >= idx.Len()) {
			t.Fatalf("item %d: list of %d over %d rankings, column %v", it, len(ids), idx.Len(), ok)
		}
		if !ok {
			return
		}
		if 5*len(ids) < len(col) || len(col) > idx.Len() {
			t.Fatalf("item %d: column of %d for a list of %d over %d rankings", it, len(col), len(ids), idx.Len())
		}
		set := 0
		for _, c := range col {
			if c != 0 {
				set++
			}
		}
		if set != len(ids) {
			t.Fatalf("item %d: column holds %d rankings, list %d", it, set, len(ids))
		}
		for j, id := range ids {
			if int(id) >= len(col) || col[id] != ranks[j]+1 {
				t.Fatalf("item %d: ranking %d at rank %d missing from its column", it, id, ranks[j])
			}
		}
	})
	for it := range idx.cols {
		if ids, _ := idx.Postings(it); len(ids) == 0 {
			t.Fatalf("item %d: column without a list", it)
		}
	}
}

// TestRankColumnAtTheFifth builds ten rankings in which item 1 is held by
// exactly two (5·2 = 10: a column) and item 2 by one (no column), and
// answers KNN over them.
func TestRankColumnAtTheFifth(t *testing.T) {
	rs := []ranking.Ranking{{1, 10}, {11, 1}, {2, 12}}
	for i := range 7 {
		rs = append(rs, ranking.Ranking{ranking.Item(20 + 2*i), ranking.Item(21 + 2*i)})
	}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	checkColumns(t, idx, true)
	if idx.cols[1] == nil || idx.cols[2] != nil {
		t.Fatalf("columns for items 1 and 2: %v, %v; want only item 1's", idx.cols[1] != nil, idx.cols[2] != nil)
	}
	o, s := difftest.NewOracle(rs), NewSearcher(idx)
	for _, q := range []ranking.Ranking{{1, 2}, {10, 1}, {2, 11}, {12, 1}} {
		for _, n := range []int{1, 3, 10} {
			if got, want := s.nearestNeighbors(q, n, nil), o.NearestNeighbors(q, n); !difftest.Equal(got, want) {
				t.Fatalf("q=%v n=%d: got %v, want %v", q, n, got, want)
			}
		}
	}
}

// TestRankColumnProbesInsertedIDs queries [1 2 3] after two inserts: the
// first holds items 1 and 2 and lands in item 2's column, the second holds
// neither and sits past the column's end. At n = 1 admission closes before
// item 2's list with fewer touched ids than postings, so the list is probed
// in its column, and the first insert's gain from item 2 reaches it only
// there; at n = 2 the list is reached open and probed all the same.
func TestRankColumnProbesInsertedIDs(t *testing.T) {
	rs := []ranking.Ranking{{2, 10, 11}, {20, 1, 21}, {22, 2, 23}, {24, 25, 2}, {26, 2, 27}, {30, 31, 3}}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	for _, r := range []ranking.Ranking{{1, 2, 40}, {41, 3, 42}} {
		if _, err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
		o.Insert(r)
	}
	checkColumns(t, idx, false)
	if len(idx.cols[2]) != 7 {
		t.Fatalf("item 2's column holds %d rankings, want 7 (the first insert is id 6)", len(idx.cols[2]))
	}
	s := NewSearcher(idx)
	q := ranking.Ranking{1, 2, 3}
	for _, n := range []int{1, 2} {
		if got, want := s.nearestNeighbors(q, n, nil), o.NearestNeighbors(q, n); !difftest.Equal(got, want) {
			t.Fatalf("n=%d: got %v, want %v", n, got, want)
		}
	}
	if s.closed != 1 || !accClean(s) {
		t.Fatalf("admission closed on %d queries, want the first; accumulator clean %v", s.closed, accClean(s))
	}
}

// TestRankColumnFollowsInserts grows item 9's column through inserts that
// hold the item and ones that do not, until one would make it outweigh its
// list: that insert drops it.
func TestRankColumnFollowsInserts(t *testing.T) {
	rs := []ranking.Ranking{{9, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 10}}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	other := ranking.Item(100)
	insert := func(holds bool) {
		r := ranking.Ranking{other, other + 1}
		if holds {
			r[1] = 9
		}
		other += 2
		if _, err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
		o.Insert(r)
		checkColumns(t, idx, false)
	}
	// Item 9 is held by ids 0, 5, 12 and 27: its list reaches 2 and 3
	// postings at ids 5 and 12 (columns of 6 ≤ 10 and 13 ≤ 15), and its
	// fourth posting, at id 27, would need a column of 28 > 20.
	for _, step := range []struct {
		others int
		col    int // the column's length after the step's holding insert, 0: none
	}{{0, 6}, {6, 13}, {14, 0}} {
		for range step.others {
			insert(false)
		}
		insert(true)
		if got := len(idx.cols[9]); got != step.col {
			t.Fatalf("after id %d: item 9's column holds %d rankings, want %d", idx.Len()-1, got, step.col)
		}
	}
	s := NewSearcher(idx)
	for _, q := range []ranking.Ranking{{9, 1}, {1, 9}, {9, 200}} {
		if got, want := s.nearestNeighbors(q, 3, nil), o.NearestNeighbors(q, 3); !difftest.Equal(got, want) {
			t.Fatalf("q=%v: got %v, want %v", q, got, want)
		}
	}
}

// TestRankColumnsUnderMutation drives a Mutable over a collection whose hot
// items each sit in about a third of the rankings through a random schedule
// of Insert, Update, Delete and Compact: after every step each column must
// match its list and the size rule, a rebuild must restore exactly the
// columns the rule asks for, and KNN must match the oracle.
func TestRankColumnsUnderMutation(t *testing.T) {
	const k, domain = 4, 40
	rng := rand.New(rand.NewSource(46))
	fresh := func() ranking.Ranking {
		r := difftest.RandomRanking(rng, k, domain)
		r[rng.Intn(k)] = ranking.Item(domain + rng.Intn(3)) // one of three hot items
		return r
	}
	var rs []ranking.Ranking
	for range 60 {
		rs = append(rs, fresh())
	}
	m, err := NewMutable(rs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	checkColumns(t, m.inv, true)
	if len(m.inv.cols) == 0 {
		t.Fatal("no column built: the schedule exercises nothing")
	}
	for step := range 300 {
		built := false
		switch op := rng.Intn(10); {
		case op < 5:
			r := fresh()
			if _, err := m.Insert(r); err != nil {
				t.Fatal(err)
			}
			o.Insert(r)
		case op < 7:
			if ids := o.LiveIDs(); len(ids) > 1 {
				id := ids[rng.Intn(len(ids))]
				if err := m.Delete(id); err != nil {
					t.Fatal(err)
				}
				if err := o.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		case op < 9:
			if ids := o.LiveIDs(); len(ids) > 0 {
				id, r := ids[rng.Intn(len(ids))], fresh()
				if err := m.Update(id, r); err != nil {
					t.Fatal(err)
				}
				if err := o.Update(id, r); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			built = true
		}
		checkColumns(t, m.inv, built)
		q := fresh()
		for _, n := range []int{1, 5} {
			got, err := m.NearestNeighbors(q, n)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.NearestNeighbors(q, n); !difftest.Equal(got, want) {
				t.Fatalf("step %d q=%v n=%d: got %v, want %v", step, q, n, got, want)
			}
		}
	}
}
