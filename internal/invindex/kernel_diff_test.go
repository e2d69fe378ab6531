package invindex

import (
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// keptCandidates counts, by brute force, the distinct live ids in the index
// lists of the query positions kept — the candidates F&V must validate, one
// distance call each.
func keptCandidates(idx *Index, q ranking.Ranking, kept []int) uint64 {
	seen := make(map[ranking.ID]bool)
	for _, pos := range kept {
		ids, _ := idx.Postings(q[pos])
		for _, id := range ids {
			if !idx.Deleted(id) {
				seen[id] = true
			}
		}
	}
	return uint64(len(seen))
}

// bandCandidates counts, by brute force, the undecided band F&V+Drop must
// validate: the distinct live ids in the kept lists whose gain over the kept
// positions — computed from the rankings, not the postings — plus the most
// the dropped positions could add reaches dmax − rawTheta. Nothing dropped
// means nothing to validate: the accumulated distances are exact.
func bandCandidates(idx *Index, q ranking.Ranking, kept []int, rawTheta int) uint64 {
	k := len(q)
	rem := ranking.MaxDistance(k)
	for _, pos := range kept {
		rem -= 2 * (k - pos)
	}
	if rem == 0 {
		return 0
	}
	seen := make(map[ranking.ID]bool)
	for _, pos := range kept {
		ids, _ := idx.Postings(q[pos])
		for _, id := range ids {
			seen[id] = true
		}
	}
	band := uint64(0)
	for id := range seen {
		if idx.Deleted(id) {
			continue
		}
		gain := 0
		for _, pos := range kept {
			if r, ok := idx.Ranking(id).Rank(q[pos]); ok {
				gain += 2 * (k - max(pos, r))
			}
		}
		if gain+rem >= ranking.MaxDistance(k)-rawTheta {
			band++
		}
	}
	return band
}

// TestValidateMatchesOracleAndCandidateCount checks F&V and F&V+Drop over
// build-time, post-build and tombstoned ids: results byte-identical to the
// linear-scan oracle, every distance equal to the definitional
// kernel.Reference, and DFC equal to a brute-force count of what each must
// validate — every distinct live candidate in the lists for F&V, the
// undecided band for F&V+Drop — so validation counts each candidate exactly
// once.
func TestValidateMatchesOracleAndCandidateCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k, domain = 400, 12, 300
	rs := difftest.RandomCollection(rng, n, k, domain)
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	// Insert some rankings, so validate reads ids the store grew by as well
	// as build-time ones, and tombstone a few.
	for i := 0; i < 40; i++ {
		r := difftest.Perturb(rng, rs[rng.Intn(n)], domain)
		if _, err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
		o.Insert(r)
	}
	for i := 0; i < 20; i++ {
		id := ranking.ID(rng.Intn(n))
		if !o.Live(id) {
			continue
		}
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := o.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSearcher(idx)
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	dmax := ranking.MaxDistance(k)
	for trial := 0; trial < 60; trial++ {
		q := difftest.RandomRanking(rng, k, domain)
		if rng.Intn(2) == 0 {
			q = rs[rng.Intn(n)]
		}
		for _, raw := range []int{0, dmax / 10, dmax / 4, dmax / 2, dmax - 1} {
			want := o.SearchRaw(q, raw)
			ev := metric.New(nil)
			got, err := s.FilterValidate(q, raw, ev)
			if err != nil {
				t.Fatal(err)
			}
			if !difftest.Equal(got, want) {
				t.Fatalf("raw=%d: F&V %v != oracle %v", raw, got, want)
			}
			for _, r := range got {
				if ref := kernel.Reference(q, idx.Ranking(r.ID)); r.Dist != ref {
					t.Fatalf("raw=%d id=%d: distance %d, reference %d", raw, r.ID, r.Dist, ref)
				}
			}
			if c := keptCandidates(idx, q, all); ev.Calls() != c {
				t.Fatalf("raw=%d: F&V DFC %d, %d distinct live candidates", raw, ev.Calls(), c)
			}
			ev.Reset()
			got, err = s.FilterValidateDrop(q, raw, ev, DropSafe)
			if err != nil {
				t.Fatal(err)
			}
			if !difftest.Equal(got, want) {
				t.Fatalf("drop raw=%d: F&V+Drop %v != oracle %v", raw, got, want)
			}
			if c := bandCandidates(idx, q, s.chooseKeptLists(q, raw, DropSafe), raw); ev.Calls() != c {
				t.Fatalf("drop raw=%d: DFC %d, %d live candidates in the undecided band", raw, ev.Calls(), c)
			}
		}
	}
}

// TestListLayoutDifferential pins the packed posting layout against an
// independently built map layout, through build, post-insert, and
// post-compaction (rebuild) states, and checks the structural invariants of
// the build-time arena views.
func TestListLayoutDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, k, domain = 300, 10, 200
	rs := difftest.RandomCollection(rng, n, k, domain)

	naive := func(rankings []ranking.Ranking) map[ranking.Item][]posting {
		m := make(map[ranking.Item][]posting)
		for id, r := range rankings {
			for rank, it := range r {
				m[it] = append(m[it], posting{ID: ranking.ID(id), Rank: uint8(rank)})
			}
		}
		return m
	}
	checkAgainst := func(idx *Index, want map[ranking.Item][]posting) {
		t.Helper()
		if idx.NumLists() != len(want) {
			t.Fatalf("NumLists=%d want %d", idx.NumLists(), len(want))
		}
		for it, wl := range want {
			gl := postingsOf(idx, it)
			if len(gl) != len(wl) {
				t.Fatalf("item %d: list length %d want %d", it, len(gl), len(wl))
			}
			for i := range wl {
				if gl[i] != wl[i] {
					t.Fatalf("item %d posting %d: %+v want %+v", it, i, gl[i], wl[i])
				}
			}
		}
	}
	// Freshly built lists are tight spans covering exactly n·k postings, so
	// an insert moves a list out instead of clobbering a neighbor.
	checkBuildViews := func(idx *Index, rankings int) {
		t.Helper()
		total := 0
		idx.eachSpan(func(it ranking.Item, s *span) {
			total += int(s.n)
			if s.cap != s.n {
				t.Fatalf("item %d: build-time list has spare capacity %d", it, s.cap-s.n)
			}
		})
		if total != rankings*k || len(idx.ids) != total {
			t.Fatalf("lists hold %d postings in %d slots, want %d", total, len(idx.ids), rankings*k)
		}
	}

	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(idx, naive(rs))
	checkBuildViews(idx, n)

	// Post-mutation state: inserts must extend the lists while leaving the
	// build-time postings untouched — the views taken before the inserts
	// still read exactly the build-time postings.
	type view struct {
		ids   []ranking.ID
		ranks []uint8
	}
	before := make(map[ranking.Item]view, idx.NumLists())
	idx.EachList(func(it ranking.Item, ids []ranking.ID, ranks []uint8) {
		before[it] = view{ids, ranks}
	})
	live := append([]ranking.Ranking(nil), rs...)
	for i := 0; i < 50; i++ {
		r := difftest.Perturb(rng, live[rng.Intn(len(live))], domain)
		if _, err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
		live = append(live, r)
	}
	checkAgainst(idx, naive(live))
	for it, wl := range naive(rs) {
		for i, id := range before[it].ids {
			if p := (posting{id, before[it].ranks[i]}); p != wl[i] {
				t.Fatalf("item %d: insert clobbered build-time posting %d: %+v want %+v", it, i, p, wl[i])
			}
		}
	}

	// Post-compaction state: tombstone a third, rebuild over the survivors
	// (exactly what the facade's compaction does), and re-check the fresh
	// layout against the naive layout of the compacted collection.
	o := difftest.NewOracle(live)
	for i := 0; i < len(live)/3; i++ {
		id := ranking.ID(rng.Intn(len(live)))
		if !o.Live(id) {
			continue
		}
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := o.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	compacted, err := New(o.LiveRankings())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainst(compacted, naive(o.LiveRankings()))
	checkBuildViews(compacted, o.Len())

	// And the compacted index answers exactly like the oracle (dense-remapped).
	s := NewSearcher(compacted)
	dmax := ranking.MaxDistance(k)
	for trial := 0; trial < 40; trial++ {
		q := difftest.RandomRanking(rng, k, domain)
		for _, raw := range []int{0, dmax / 6, dmax / 3, dmax - 1} {
			got, err := s.FilterValidate(q, raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := o.RemapToDense(o.SearchRaw(q, raw))
			if !difftest.Equal(got, want) {
				t.Fatalf("raw=%d: got %v want %v", raw, got, want)
			}
		}
	}
}
