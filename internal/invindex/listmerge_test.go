package invindex

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"topk/internal/difftest"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// checkListMerge cross-checks one query on one searcher at every threshold
// at which any answer can change — each distance a live ranking actually
// has, one below it, and the extremes: ListMerge ≡ F&V ≡ F&V+Drop ≡ the
// linear-scan oracle, ListMerge adds nothing to DFC, and alternating it with
// NearestNeighbors finds the shared accumulator all-zero every time. The
// oracle is asked at ≤ dmax−1: rankings sharing no item with the query, at
// distance exactly dmax, are invisible to posting lists by design. The
// oracle scans the collection twice per query — its distances and its KNN
// answer — and each threshold's answer is filtered from the distances: at
// k = 255 its quadratic Footrule would otherwise take nearly all the time.
func checkListMerge(t *testing.T, s *Searcher, o *difftest.Oracle, q ranking.Ranking) {
	t.Helper()
	dmax := ranking.MaxDistance(len(q))
	every := o.SearchRaw(q, dmax) // id order
	wantNN := o.NearestNeighbors(q, 3)
	raws := []int{-1, 0, dmax - 1, dmax}
	for _, r := range every {
		raws = append(raws, r.Dist-1, r.Dist)
	}
	slices.Sort(raws)
	for _, raw := range slices.Compact(raws) {
		var want []ranking.Result
		for _, r := range every {
			if r.Dist <= min(raw, dmax-1) {
				want = append(want, r)
			}
		}
		ev := metric.New(nil)
		merged, err := s.ListMerge(q, raw, ev)
		if err != nil {
			t.Fatalf("ListMerge: %v", err)
		}
		if !difftest.Equal(merged, want) {
			t.Fatalf("k=%d raw=%d q=%v: ListMerge %v != oracle %v", len(q), raw, q, merged, want)
		}
		if ev.Calls() != 0 {
			t.Fatalf("k=%d raw=%d: ListMerge counted %d distance calls", len(q), raw, ev.Calls())
		}
		if !accClean(s) {
			t.Fatalf("k=%d raw=%d: ListMerge left the accumulator dirty", len(q), raw)
		}
		fv, err := s.FilterValidate(q, raw, nil)
		if err != nil {
			t.Fatalf("FilterValidate: %v", err)
		}
		drop, err := s.FilterValidateDrop(q, raw, nil, DropSafe)
		if err != nil {
			t.Fatalf("FilterValidateDrop: %v", err)
		}
		if !difftest.Equal(fv, want) || !difftest.Equal(drop, want) {
			t.Fatalf("k=%d raw=%d q=%v: F&V %v / F&V+Drop %v != oracle %v", len(q), raw, q, fv, drop, want)
		}
		nn, err := s.NearestNeighbors(q, 3, nil)
		if err != nil {
			t.Fatalf("NearestNeighbors: %v", err)
		}
		if !difftest.Equal(nn, wantNN) {
			t.Fatalf("k=%d q=%v: KNN after ListMerge %v != oracle %v", len(q), q, nn, wantNN)
		}
		if !accClean(s) {
			t.Fatalf("k=%d: NearestNeighbors left the accumulator dirty", len(q))
		}
	}
}

// runListMergeWorkload replays a byte-encoded Insert/Delete/query schedule
// against an index — built over a few rankings, so most lists are post-build
// — and the oracle in lockstep, one searcher throughout. Queries are a live
// member, a random ranking over the item domain, or a zero-overlap ranking
// from outside it. With skew set the collection is NYT-like in the two ways
// that steer accumulate — a wide domain whose lists stay short, except that
// every fresh ranking ends in two of three hot items whose lists hold most of
// the collection at the positions of least gain; and half of the inserts are
// near-duplicates of a live ranking — so lists are read far from query order
// and the KNN cross-check closes admission before the long ones. The rank
// columns are checked against their lists after every insert.
func runListMergeWorkload(t *testing.T, k int, skew bool, seed int64, ops []byte) {
	domain := k + 2 + k/2
	if skew {
		domain = 8 * k
	}
	rng := rand.New(rand.NewSource(seed))
	fresh := func() ranking.Ranking {
		r := difftest.RandomRanking(rng, k, domain)
		if skew && k > 2 {
			h := rng.Intn(3)
			r[k-2], r[k-1] = ranking.Item(2*domain+h), ranking.Item(2*domain+(h+1+rng.Intn(2))%3)
		}
		return r
	}
	rs := difftest.RandomCollection(rng, rng.Intn(8), k, domain)
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	s := NewSearcher(idx)
	for _, op := range ops {
		switch op % 4 {
		case 0, 1: // insert
			r := fresh()
			if ids := o.LiveIDs(); skew && len(ids) > 0 && rng.Intn(2) == 0 {
				r = difftest.Perturb(rng, o.Slots()[ids[rng.Intn(len(ids))]], domain)
			}
			id, err := idx.Insert(r)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			if want := o.Insert(r); id != want {
				t.Fatalf("insert id %d, oracle %d", id, want)
			}
			checkColumns(t, idx, false)
		case 2: // delete
			ids := o.LiveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[int(op/4)%len(ids)]
			if err := idx.Delete(id); err != nil {
				t.Fatalf("delete(%d): %v", id, err)
			}
			if err := o.Delete(id); err != nil {
				t.Fatal(err)
			}
		default: // query
			if o.NumSlots() == 0 {
				continue // k is undefined until the first insert
			}
			var q ranking.Ranking
			switch ids := o.LiveIDs(); {
			case op/4%3 == 0 && len(ids) > 0:
				q = o.Slots()[ids[rng.Intn(len(ids))]]
			case op/4%3 == 1:
				q = fresh()
			default:
				q = make(ranking.Ranking, k)
				for i := range q {
					q[i] = ranking.Item(domain + i)
				}
			}
			checkListMerge(t, s, o, q)
		}
	}
}

// TestListMergeEquivalenceUnderMutation is the property run of the schedule
// checker at the ranking sizes that matter: k = 1 (every gain is the whole
// distance), 10 (the serving default) and 255 (the uint8 rank limit, where
// the uint16 accumulator is fullest).
func TestListMergeEquivalenceUnderMutation(t *testing.T) {
	for _, k := range []int{1, 10, 255} {
		rng := rand.New(rand.NewSource(int64(k) + 31))
		for round := 0; round < 4; round++ {
			ops := make([]byte, 60)
			rng.Read(ops)
			runListMergeWorkload(t, k, round%2 == 1, rng.Int63(), ops)
		}
	}
}

// FuzzListMerge lets the fuzzer pick the ranking size, whether the collection
// is skewed, the collection seed and the mutation/query schedule. Seeded into
// CI's fuzz-smoke step.
func FuzzListMerge(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 3, 7, 2, 11, 0, 0, 15, 6, 3})
	f.Add(uint8(1), int64(2), []byte{1, 1, 1, 1, 3, 2, 2, 2, 7, 11, 0, 15})
	f.Add(uint8(2), int64(3), []byte{0, 1, 0, 3, 2, 7, 11})
	f.Add(uint8(1), int64(4), []byte{3, 7, 11, 2, 0, 2, 3})
	// k = 10, skewed: thirty inserts, then member / random / zero-overlap
	// queries around two deletes; admission closes on most of the KNN checks.
	f.Add(uint8(4), int64(3), append(bytes.Repeat([]byte{0}, 30), 3, 7, 3, 7, 2, 6, 3, 7, 11))
	f.Fuzz(func(t *testing.T, kSel uint8, seed int64, ops []byte) {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		runListMergeWorkload(t, []int{1, 10, 255}[kSel%3], kSel/3%2 == 1, seed, ops)
	})
}
