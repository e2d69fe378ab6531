package invindex

import (
	"math/rand"
	"testing"

	"topk/internal/dataset"
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

// TestNearestNeighborsAdmissionBound pins the closing rule of accumulate on
// hand-built collections, every answer against the linear-scan oracle. The
// k = 3 cases query [1 2 3] over lists of lengths 1 (item 1), 1 (item 3) and
// ≥ 4 (item 2), so the one count runs before item 2's list with rem = 4: a
// ranking holding item 1 at rank 0 has gain 6 and can close admission, one
// holding it at rank 1 has gain 4 = rem and must not — ranking 0, untouched
// until the last list, ties it there and has the smaller id.
func TestNearestNeighborsAdmissionBound(t *testing.T) {
	q3 := ranking.Ranking{1, 2, 3}
	base := func(x ...ranking.Ranking) []ranking.Ranking {
		return append([]ranking.Ranking{
			{2, 10, 11},                           // gain 4, from the last list alone
			{20, 30, 2}, {21, 31, 2}, {22, 32, 2}, // gain 2, item 2's long list
			{40, 41, 3},  // gain 2, admitted early
			{70, 71, 72}, // no overlap: reachable through the dmax fill only
		}, x...)
	}
	// k = 255: three copies of the query and 40 rankings sharing only its
	// last item. Admission closes with rem = 2 under gains of 65 278, and the
	// update-only walk lifts the copies to k(k+1) = 65 280, the top of uint16.
	var wide []ranking.Ranking
	q255 := make(ranking.Ranking, 255)
	for i := range q255 {
		q255[i] = ranking.Item(i)
	}
	for j := 0; j < 40; j++ {
		r := make(ranking.Ranking, 255)
		for i := range r {
			r[i] = ranking.Item(1000 + 300*j + i)
		}
		r[254] = q255[254]
		wide = append(wide, r)
	}
	wide = append(wide, q255, q255, q255)

	cases := []nnCase{
		{name: "gain above rem closes", build: base(ranking.Ranking{1, 50, 51}), q: q3, n: 1, closes: true},
		{name: "gain equal to rem must not close", build: base(ranking.Ranking{50, 1, 51}), q: q3, n: 1},
		{name: "one above rem is not two", build: base(ranking.Ranking{1, 50, 51}), q: q3, n: 2},
		{name: "tombstone above rem is not counted", build: base(ranking.Ranking{1, 50, 51}), deletes: []ranking.ID{6}, q: q3, n: 1},
		{name: "live above rem beside a tombstone", build: base(ranking.Ranking{1, 50, 51}, ranking.Ranking{1, 52, 53}), deletes: []ranking.ID{6}, q: q3, n: 1, closes: true},
		{name: "inserted ids in admitting and update-only lists", build: base(),
			inserts: []ranking.Ranking{{1, 50, 51}, {1, 2, 60}, {61, 62, 2}, {63, 2, 64}}, q: q3, n: 2, closes: true},
		{name: "non-monotonic ext, tie on the boundary", build: base(ranking.Ranking{50, 1, 51}), ext: reversed(7), q: q3, n: 1},
		{name: "non-monotonic ext, tie among the admitted", build: base(ranking.Ranking{1, 50, 51}, ranking.Ranking{1, 52, 53}), ext: reversed(8), q: q3, n: 1, closes: true},
		{name: "n beyond the touched set reaches the dmax fill", build: base(ranking.Ranking{1, 50, 51}), q: q3, n: 7},
		{name: "k=1 has one list and nothing to close", build: []ranking.Ranking{{1}, {2}, {1}, {3}, {1}}, q: ranking.Ranking{1}, n: 2},
		{name: "k=255 closes at the uint16 edge", build: wide, q: q255, n: 3, closes: true},
		{name: "k=255 one more than the copies", build: wide, q: q255, n: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if s := tc.run(t); s.closed != b2i(tc.closes) {
				t.Errorf("admission closed %d times, want closed = %v", s.closed, tc.closes)
			}
		})
	}
}

// nnCase is one hand-built KNN query: a collection built, grown and
// tombstoned as listed, queried once under the id map ext.
type nnCase struct {
	name    string
	build   []ranking.Ranking
	inserts []ranking.Ranking // Insert()ed after the build
	deletes []ranking.ID
	ext     []ranking.ID // nil: external ids are the internal ones
	q       ranking.Ranking
	n       int
	closes  bool
	exits   bool
}

// run answers the case on a fresh searcher, holds the answer to the
// linear-scan oracle — which sees the collection through the external ids —
// and the accumulator to all zero, and returns the searcher for its counters.
func (tc nnCase) run(t *testing.T) *Searcher {
	t.Helper()
	idx, err := New(tc.build)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tc.inserts {
		if _, err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range tc.deletes {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	slots := make([]ranking.Ranking, idx.Len())
	for id, r := range idx.Rankings() {
		if idx.Deleted(ranking.ID(id)) {
			continue
		}
		if tc.ext != nil {
			id = int(tc.ext[id])
		}
		slots[id] = r
	}
	s := NewSearcher(idx)
	got, err := s.NearestNeighbors(tc.q, tc.n, tc.ext)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if tc.ext != nil {
			got[i].ID = tc.ext[got[i].ID]
		}
	}
	if want := difftest.NewOracle(slots).NearestNeighbors(tc.q, tc.n); !difftest.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if !accClean(s) {
		t.Error("accumulator left dirty")
	}
	return s
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// reversed is the id map that turns n internal ids around.
func reversed(n int) []ranking.ID {
	ext := make([]ranking.ID, n)
	for i := range ext {
		ext[i] = ranking.ID(n - 1 - i)
	}
	return ext
}

// TestNearestNeighborsOpenLastList pins the walk over a last list reached
// with admission still open. Every k = 3 case queries [1 2 3] over lists of
// lengths 1 (item 3), 1 (item 1) and ≥ 4 (item 2, position 1), so the last
// list's own rankings gain at most top = 4 — exactly 4 with item 2 at rank 0
// or 1 — and no touched ranking holds more than rem = 4 before it: the walk
// may stop once n own rankings sit at distance 12 − 4 = 8. Touched rankings
// tie there too, from either side of the stopping point.
func TestNearestNeighborsOpenLastList(t *testing.T) {
	q3 := ranking.Ranking{1, 2, 3}
	base := func(touched1, touched5 ranking.Ranking, x ...ranking.Ranking) []ranking.Ranking {
		return append([]ranking.Ranking{
			{2, 10, 11}, // own, distance 8
			touched1,    // touched first, from item 3's or item 1's list
			{22, 2, 23}, // own, distance 8
			{24, 25, 2}, // own, distance 10
			{26, 2, 27}, // own, distance 8
			touched5,    // touched first, from the other short list
		}, x...)
	}
	lowTie := base(ranking.Ranking{20, 21, 3}, ranking.Ranking{28, 1, 29})  // 1 at 10, 5 ties at 8
	highTie := base(ranking.Ranking{20, 1, 21}, ranking.Ranking{28, 29, 3}) // 1 ties at 8, 5 at 10
	far := ranking.Ranking{70, 71, 72}
	cases := []nnCase{
		{name: "own ranking at the stop beats a later tie", build: lowTie, q: q3, n: 2, exits: true},
		{name: "earlier touched tie beats the own ranking at the stop", build: highTie, q: q3, n: 2, exits: true},
		{name: "tombstoned own rankings do not count", build: lowTie, deletes: []ranking.ID{2}, q: q3, n: 2, exits: true},
		{name: "non-monotonic ext reads the whole list", build: lowTie, ext: reversed(6), q: q3, n: 2},
		{name: "fewer than n overlap: the fill runs after the walk", build: base(ranking.Ranking{20, 21, 3}, ranking.Ranking{28, 1, 29}, far, far),
			q: q3, n: 7},
		{name: "every ranking, the far ones through the fill", build: base(ranking.Ranking{20, 21, 3}, ranking.Ranking{28, 1, 29}, far, far),
			deletes: []ranking.ID{4}, q: q3, n: 7},
		{name: "one-list query stops at the n-th own ranking", build: []ranking.Ranking{{1}, {2}, {1}, {3}, {1}}, q: ranking.Ranking{1}, n: 2, exits: true},
		{name: "one-list query reaches the fill", build: []ranking.Ranking{{1}, {2}, {1}, {3}, {1}}, q: ranking.Ranking{1}, n: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.run(t)
			if s.closed != 0 {
				t.Fatal("admission closed: the case does not reach an open last list")
			}
			if s.exits != b2i(tc.exits) {
				t.Errorf("walk stopped early %d times, want stopped = %v", s.exits, tc.exits)
			}
		})
	}
}

// TestNearestNeighborsClosesAdmissionOnSkew runs the benchmark's kind of
// input — NYT-like Zipf skew, where a query's longest lists hold most of its
// postings — and fails if fewer than half of the queries closed admission, so
// the early-termination path cannot go dead without a test noticing.
func TestNearestNeighborsClosesAdmissionOnSkew(t *testing.T) {
	cfg := dataset.NYTLike(20000, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := dataset.Workload(rs, cfg, 64, 0.8, cfg.Seed+500)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	s := NewSearcher(idx)
	for _, q := range queries {
		got, err := s.NearestNeighbors(q, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.NearestNeighbors(q, 10); !difftest.Equal(got, want) {
			t.Fatalf("q=%v:\n got %v\nwant %v", q, got, want)
		}
	}
	if 2*s.closed < len(queries) {
		t.Fatalf("admission closed on %d of %d queries, want at least half", s.closed, len(queries))
	}
}

// TestNearestNeighborsExitsEarlyOnSkew runs the same NYT-like input and
// follows the queries that do not close admission: on at least half of them
// the walk over the open last list must stop early, and those walks must read
// under a tenth of their lists, so neither the exit nor its bound can go dead
// without a test noticing.
func TestNearestNeighborsExitsEarlyOnSkew(t *testing.T) {
	cfg := dataset.NYTLike(20000, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := dataset.Workload(rs, cfg, 64, 0.8, cfg.Seed+500)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	s := NewSearcher(idx)
	open, exits, read, lists := 0, 0, 0, 0
	for _, q := range queries {
		closed, exited, offered := s.closed, s.exits, s.offered
		got, err := s.NearestNeighbors(q, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.NearestNeighbors(q, 10); !difftest.Equal(got, want) {
			t.Fatalf("q=%v:\n got %v\nwant %v", q, got, want)
		}
		if s.closed > closed {
			continue
		}
		open++
		if s.exits > exited {
			exits++
			read += s.offered - offered
			lists += int(s.spans[s.kept[0]].n) // the last list, still in scratch
		}
	}
	t.Logf("%d of %d queries reach an open last list; %d stop early, reading %d of %d postings", open, len(queries), exits, read, lists)
	if open == 0 || 2*exits < open {
		t.Fatalf("the walk stopped early on %d of %d open queries, want at least half", exits, open)
	}
	if 10*read >= lists {
		t.Fatalf("the early walks read %d of their lists' %d postings, want under a tenth", read, lists)
	}
}

// TestNearestNeighborsAllocatesOnlyTheResult holds a warmed-up searcher to
// one allocation per query, either side of the k at which ranking.Validate
// turns from its pairwise scan to a stack sort.
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
// range route to the same budget: list choice runs on searcher scratch, the
// query check on the stack.
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
