package bktree

import (
	"math/rand"
	"slices"
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

// bruteRange is the reference result: a linear scan over the given ids
// (nil: the whole collection), sorted by id.
func bruteRange(rs []ranking.Ranking, ids []ranking.ID, q ranking.Ranking, radius int) []ranking.Result {
	if ids == nil {
		for id := range rs {
			ids = append(ids, ranking.ID(id))
		}
	}
	var out []ranking.Result
	for _, id := range ids {
		if d := ranking.Footrule(q, rs[id]); d <= radius {
			out = append(out, ranking.Result{ID: id, Dist: d})
		}
	}
	ranking.SortResults(out)
	return out
}

// sorted orders a walk's results by id for comparison with bruteRange.
func sorted(res []ranking.Result) []ranking.Result {
	ranking.SortResults(res)
	return res
}

func TestEmptyTree(t *testing.T) {
	tr, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.K() != 0 {
		t.Fatalf("empty tree: Len=%d K=%d", tr.Len(), tr.K())
	}
	if got := tr.RangeSearch(ranking.Ranking{1, 2}, 5, nil); len(got) != 0 {
		t.Fatalf("search on empty tree returned %v", got)
	}
	if parts := tr.Partitions(3); len(parts) != 0 {
		t.Fatalf("partitions of empty tree: %v", parts)
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	_, err := New([]ranking.Ranking{{1, 2, 3}, {4, 5}}, nil)
	if err == nil {
		t.Fatal("mixed sizes accepted")
	}
}

func TestSingleNode(t *testing.T) {
	rs := []ranking.Ranking{{1, 2, 3}}
	tr, err := New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.RangeSearch(ranking.Ranking{1, 2, 3}, 0, nil); len(got) != 1 || got[0] != (ranking.Result{}) {
		t.Fatalf("exact self search: %v", got)
	}
	if got := tr.RangeSearch(ranking.Ranking{7, 8, 9}, 0, nil); len(got) != 0 {
		t.Fatalf("disjoint exact search: %v", got)
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	const k, v, n = 10, 60, 800
	rs := randomCollection(1, n, k, v)
	tr, err := New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	dmax := ranking.MaxDistance(k)
	for trial := 0; trial < 60; trial++ {
		q := randomRanking(rng, k, v)
		radius := rng.Intn(dmax / 2)
		got := sorted(tr.RangeSearch(q, radius, nil))
		if want := bruteRange(rs, nil, q, radius); !slices.Equal(got, want) {
			t.Fatalf("radius=%d:\n got %v\nwant %v", radius, got, want)
		}
	}
}

func TestRangeSearchQueryFromCollection(t *testing.T) {
	// Query with an indexed ranking at radius 0 must find at least itself.
	rs := randomCollection(3, 300, 8, 30)
	tr, _ := New(rs, nil)
	for id := 0; id < len(rs); id += 17 {
		got := tr.RangeSearch(rs[id], 0, nil)
		found := false
		for _, g := range got {
			if g.ID == ranking.ID(id) {
				found = true
			}
			if g.Dist != 0 || !tr.Ranking(g.ID).Equal(rs[id]) {
				t.Fatalf("radius-0 result %v is not equal to query", g)
			}
		}
		if !found {
			t.Fatalf("self not found for id %d", id)
		}
	}
}

func TestNegativeRadius(t *testing.T) {
	rs := randomCollection(4, 50, 6, 20)
	tr, _ := New(rs, nil)
	if got := tr.RangeSearch(rs[0], -1, nil); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

func TestDFCCounting(t *testing.T) {
	rs := randomCollection(7, 200, 10, 40)
	ev := metric.New(nil)
	tr, _ := New(rs, ev)
	build := ev.Calls()
	if build == 0 {
		t.Fatal("construction performed no distance computations")
	}
	ev.Reset()
	tr.RangeSearch(rs[0], 10, ev)
	q := ev.Calls()
	if q == 0 || q > uint64(len(rs)) {
		t.Fatalf("query DFC = %d, want in (0,%d]", q, len(rs))
	}
}

// TestBKInvariant checks the structural invariant the partition extraction
// relies on: every node in the subtree hanging off edge e of node v has
// distance exactly e to v.
func TestBKInvariant(t *testing.T) {
	rs := randomCollection(8, 500, 8, 32)
	tr, _ := New(rs, nil)
	var check func(n *Node)
	check = func(n *Node) {
		for _, e := range n.Children {
			var walk func(m *Node)
			walk = func(m *Node) {
				if d := ranking.Footrule(rs[n.ID], rs[m.ID]); d != int(e.Dist) {
					t.Fatalf("invariant violated: d(%d,%d)=%d, edge=%d", n.ID, m.ID, d, e.Dist)
				}
				for _, f := range m.Children {
					walk(f.Child)
				}
			}
			walk(e.Child)
			check(e.Child)
		}
	}
	check(tr.Root)
}

func TestChildrenSortedAndUnique(t *testing.T) {
	rs := randomCollection(9, 600, 10, 40)
	tr, _ := New(rs, nil)
	tr.Walk(func(n *Node, _ int) bool {
		for i := 1; i < len(n.Children); i++ {
			if n.Children[i-1].Dist >= n.Children[i].Dist {
				t.Fatalf("children not strictly sorted at node %d", n.ID)
			}
		}
		return true
	})
}

func TestPartitionsDisjointCover(t *testing.T) {
	rs := randomCollection(10, 700, 10, 36)
	tr, _ := New(rs, nil)
	for _, thetaC := range []int{0, 5, 20, 55, 110} {
		parts := tr.Partitions(thetaC)
		seen := make(map[ranking.ID]bool)
		total := 0
		for _, p := range parts {
			members := p.Members()
			if len(members) != p.Size {
				t.Fatalf("θC=%d: Size=%d but %d members", thetaC, p.Size, len(members))
			}
			total += len(members)
			for _, id := range members {
				if seen[id] {
					t.Fatalf("θC=%d: ranking %d in two partitions", thetaC, id)
				}
				seen[id] = true
				if d := ranking.Footrule(rs[p.Medoid], rs[id]); d > thetaC {
					t.Fatalf("θC=%d: member %d at distance %d from medoid", thetaC, id, d)
				}
			}
		}
		if total != len(rs) {
			t.Fatalf("θC=%d: partitions cover %d of %d rankings", thetaC, total, len(rs))
		}
	}
}

func TestPartitionsExtremes(t *testing.T) {
	rs := randomCollection(11, 300, 10, 36)
	tr, _ := New(rs, nil)
	// θC = dmax: one partition containing everything (root's children are
	// all within dmax).
	parts := tr.Partitions(ranking.MaxDistance(10))
	if len(parts) != 1 || parts[0].Size != len(rs) {
		t.Fatalf("θC=dmax: %d partitions, first size %d", len(parts), parts[0].Size)
	}
	// θC = -1: every ranking its own partition (even duplicates split, as
	// edge distance 0 > -1 never holds... 0 ≤ -1 is false).
	parts = tr.Partitions(-1)
	if len(parts) != len(rs) {
		t.Fatalf("θC=-1: %d partitions, want %d", len(parts), len(rs))
	}
	// θC = 0 groups exact duplicates only.
	dup := []ranking.Ranking{{1, 2, 3}, {1, 2, 3}, {4, 5, 6}}
	tr2, _ := New(dup, nil)
	parts = tr2.Partitions(0)
	if len(parts) != 2 {
		t.Fatalf("θC=0 with duplicates: %d partitions, want 2", len(parts))
	}
}

func TestSearchPartitionMatchesBrute(t *testing.T) {
	rs := randomCollection(12, 500, 10, 30)
	tr, _ := New(rs, nil)
	parts := tr.Partitions(30)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		q := randomRanking(rng, 10, 30)
		radius := rng.Intn(40)
		for _, p := range parts {
			got := sorted(tr.SearchPartition(p, q, radius, nil))
			if want := bruteRange(rs, p.Members(), q, radius); !slices.Equal(got, want) {
				t.Fatalf("partition search mismatch: got %v want %v", got, want)
			}
		}
	}
}

func TestStats(t *testing.T) {
	rs := randomCollection(14, 400, 10, 40)
	tr, _ := New(rs, nil)
	s := tr.Stats()
	if s.Nodes != len(rs) {
		t.Fatalf("Stats.Nodes = %d, want %d", s.Nodes, len(rs))
	}
	if s.MaxDepth <= 0 || s.Leaves <= 0 || s.MaxFanout <= 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
	if s.AvgDepth <= 0 || s.AvgDepth > float64(s.MaxDepth) {
		t.Fatalf("AvgDepth out of range: %+v", s)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	rs := randomCollection(15, 100, 8, 30)
	tr, _ := New(rs, nil)
	visited := 0
	tr.Walk(func(n *Node, _ int) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Fatalf("Walk visited %d nodes after early stop", visited)
	}
}

func TestDuplicateHeavyCollection(t *testing.T) {
	// Many exact duplicates: tree must store all, radius-0 search finds all,
	// and only the root costs a distance call — every duplicate hangs off a
	// zero-distance edge and inherits its parent's distance.
	base := ranking.Ranking{3, 1, 4, 1 + 4, 9} // {3,1,4,5,9}
	rs := make([]ranking.Ranking, 50)
	for i := range rs {
		rs[i] = base.Clone()
	}
	tr, err := New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := metric.New(nil)
	got := tr.RangeSearch(base, 0, ev)
	if len(got) != 50 {
		t.Fatalf("found %d duplicates, want 50", len(got))
	}
	if ev.Calls() != 1 {
		t.Fatalf("radius-0 search over 50 duplicates made %d distance calls, want 1", ev.Calls())
	}
}

func TestQuickRangeSearchNoFalseNegatives(t *testing.T) {
	rs := randomCollection(16, 300, 8, 28)
	tr, _ := New(rs, nil)
	f := func(seed int64, radSeed uint8) bool {
		q := randomRanking(rand.New(rand.NewSource(seed)), 8, 28)
		radius := int(radSeed) % ranking.MaxDistance(8)
		return slices.Equal(sorted(tr.RangeSearch(q, radius, nil)), bruteRange(rs, nil, q, radius))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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
	for _, radius := range []int{11, 22, 33} {
		b.Run("radius="+string(rune('0'+radius/11)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = len(tr.RangeSearch(qs[i%len(qs)], radius, nil))
			}
		})
	}
}

var sink int
