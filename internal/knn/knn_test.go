package knn

import (
	"math/rand"
	"sort"
	"testing"

	"topk/internal/bktree"
	"topk/internal/invindex"
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

// bruteKNN is the reference: full scan, sort by (distance, id), first n.
func bruteKNN(rs []ranking.Ranking, q ranking.Ranking, n int) []ranking.Result {
	all := make([]ranking.Result, len(rs))
	for id, r := range rs {
		all[id] = ranking.Result{ID: ranking.ID(id), Dist: ranking.Footrule(q, r)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
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

func TestBestFirstMatchesBruteForce(t *testing.T) {
	rs := randomCollection(1, 800, 10, 40)
	tree, err := bktree.New(rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		q := randomRanking(rng, 10, 40)
		n := 1 + rng.Intn(20)
		got := BestFirst(tree, q, n, nil)
		want := bruteKNN(rs, q, n)
		if !equalResults(got, want) {
			t.Fatalf("n=%d: got %v, want %v", n, got, want)
		}
	}
}

func TestBestFirstEdgeCases(t *testing.T) {
	rs := randomCollection(3, 50, 8, 30)
	tree, _ := bktree.New(rs, nil)
	if got := BestFirst(tree, rs[0], 0, nil); got != nil {
		t.Fatal("n=0 returned results")
	}
	empty, _ := bktree.New(nil, nil)
	if got := BestFirst(empty, rs[0], 3, nil); got != nil {
		t.Fatal("empty tree returned results")
	}
	// n larger than the collection returns everything, sorted.
	got := BestFirst(tree, rs[0], 500, nil)
	if len(got) != len(rs) {
		t.Fatalf("n>len: got %d, want %d", len(got), len(rs))
	}
	if !equalResults(got, bruteKNN(rs, rs[0], len(rs))) {
		t.Fatal("n>len ordering wrong")
	}
}

func TestBestFirstDuplicateHeavy(t *testing.T) {
	base := ranking.Ranking{1, 2, 3, 4, 5}
	rs := make([]ranking.Ranking, 40)
	for i := range rs {
		rs[i] = base.Clone()
	}
	rs = append(rs, ranking.Ranking{9, 8, 7, 6, 5})
	tree, _ := bktree.New(rs, nil)
	got := BestFirst(tree, base, 10, nil)
	want := bruteKNN(rs, base, 10)
	if !equalResults(got, want) {
		t.Fatalf("duplicates: got %v want %v", got, want)
	}
}

func TestBestFirstPrunes(t *testing.T) {
	// On clustered data, best-first KNN must evaluate far fewer distances
	// than a scan.
	rng := rand.New(rand.NewSource(4))
	rs := make([]ranking.Ranking, 3000)
	for i := range rs {
		rs[i] = randomRanking(rng, 10, 14)
	}
	tree, _ := bktree.New(rs, nil)
	ev := metric.New(nil)
	BestFirst(tree, rs[0], 5, ev)
	if ev.Calls() >= uint64(len(rs)) {
		t.Fatalf("no pruning: %d DFC for %d objects", ev.Calls(), len(rs))
	}
}

// invSearcherAdapter adapts an invindex searcher to RangeSearcher.
type invSearcherAdapter struct {
	s *invindex.Searcher
}

func (a invSearcherAdapter) Query(q ranking.Ranking, rawTheta int) ([]ranking.Result, error) {
	return a.s.FilterValidateDrop(q, rawTheta, nil, invindex.DropSafe)
}
func (a invSearcherAdapter) Len() int { return a.s.Index().Len() }
func (a invSearcherAdapter) K() int   { return a.s.Index().K() }

func TestExpandingMatchesBruteForce(t *testing.T) {
	// Small domain guarantees overlap, so the inverted index can see every
	// ranking (Expanding over an inverted index inherits its blindness to
	// zero-overlap rankings only at radius = dmax, where the range query
	// covers the whole space anyway — at dmax every ranking qualifies).
	rs := randomCollection(5, 600, 10, 40)
	idx, err := invindex.New(rs)
	if err != nil {
		t.Fatal(err)
	}
	ad := invSearcherAdapter{invindex.NewSearcher(idx)}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		q := randomRanking(rng, 10, 40)
		n := 1 + rng.Intn(15)
		got, err := Expanding(ad, q, n)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(rs, q, n)
		if !equalResults(got, want) {
			t.Fatalf("n=%d: got %v, want %v", n, got, want)
		}
	}
}

func TestExpandingEdgeCases(t *testing.T) {
	rs := randomCollection(7, 100, 8, 30)
	idx, _ := invindex.New(rs)
	ad := invSearcherAdapter{invindex.NewSearcher(idx)}
	if got, _ := Expanding(ad, rs[0], 0); got != nil {
		t.Fatal("n=0 returned results")
	}
	got, err := Expanding(ad, rs[0], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("n>len: %d results", len(got))
	}
}

// sparseSearcher is a range searcher over a slot array with holes that, like
// an inverted index, cannot see rankings sharing no item with the query. It
// counts the Live probes of the dmax backfill.
type sparseSearcher struct {
	slots  []ranking.Ranking // nil: retired id
	probes int
}

func (s *sparseSearcher) Query(q ranking.Ranking, rawTheta int) ([]ranking.Result, error) {
	var out []ranking.Result
	// Descending ids: Expanding must not rely on the range answer's order.
	for id := len(s.slots) - 1; id >= 0; id-- {
		if r := s.slots[id]; r != nil {
			if d := ranking.Footrule(q, r); d <= rawTheta && d < ranking.MaxDistance(len(q)) {
				out = append(out, ranking.Result{ID: ranking.ID(id), Dist: d})
			}
		}
	}
	return out, nil
}
func (s *sparseSearcher) Len() int {
	n := 0
	for _, r := range s.slots {
		if r != nil {
			n++
		}
	}
	return n
}
func (s *sparseSearcher) K() int       { return 4 }
func (s *sparseSearcher) IDSpace() int { return len(s.slots) }
func (s *sparseSearcher) Live(id ranking.ID) bool {
	s.probes++
	return s.slots[id] != nil
}

// TestExpandingBackfillStopsAtN checks the dmax backfill over a sparse id
// space: exact against brute force across holes, and walking only as many
// ids as it takes to find the missing results — not the whole collection.
func TestExpandingBackfillStopsAtN(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := &sparseSearcher{slots: make([]ranking.Ranking, 5000)}
	var live []ranking.Ranking
	for id := range s.slots {
		if id%3 == 0 {
			continue // retired
		}
		s.slots[id] = randomRanking(rng, 4, 4000)
	}
	// Three rankings overlapping the query, far apart in the id space.
	q := ranking.Ranking{9001, 9002, 9003, 9004}
	s.slots[4000] = ranking.Ranking{9001, 9002, 9003, 9004}
	s.slots[10] = ranking.Ranking{9002, 9001, 9003, 9004}
	s.slots[2500] = ranking.Ranking{1, 2, 3, 9001}
	for _, r := range s.slots {
		if r != nil {
			live = append(live, r)
		}
	}
	got, err := Expanding(s, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over the slot array, ids preserved.
	var want []ranking.Result
	for id, r := range s.slots {
		if r != nil {
			want = append(want, ranking.Result{ID: ranking.ID(id), Dist: ranking.Footrule(q, r)})
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
	if !equalResults(got, want[:8]) {
		t.Fatalf("got %v\nwant %v", got, want[:8])
	}
	if s.probes > 20 {
		t.Fatalf("backfill probed %d ids to fill 5 slots of a %d-ranking collection", s.probes, len(live))
	}
	if got, _ := Expanding(s, q, len(live)+10); len(got) != len(live) {
		t.Fatalf("n past the live count returned %d of %d", len(got), len(live))
	}
}

func BenchmarkBestFirstKNN(b *testing.B) {
	rs := randomCollection(20, 10000, 10, 60)
	tree, _ := bktree.New(rs, nil)
	qs := randomCollection(21, 64, 10, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(BestFirst(tree, qs[i%len(qs)], 10, nil))
	}
}

var sink int
