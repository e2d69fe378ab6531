package blocked

import (
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// undecided counts, from first principles, the candidates whose bounds
// cannot decide — the ones Query must resolve with a distance call. A
// ranking τ is a candidate when a kept query position i holds an item τ has
// at a rank j with |i−j| ≤ θ (blocks with a larger miss are never
// scheduled). Its partial distance P sums those |i−j|; P > θ rejects it, and
// otherwise its upper bound charges every τ rank and query rank not matched
// that way its absent-item cost k−r. Undecided means P ≤ θ < U.
func undecided(rs []ranking.Ranking, q ranking.Ranking, kept []int, raw int) uint64 {
	k := len(q)
	count := uint64(0)
	for _, tau := range rs {
		partial, cand := 0, false
		tauSeen, qSeen := make([]bool, k), make([]bool, k)
		for _, i := range kept {
			if j, ok := tau.Rank(q[i]); ok && abs(i-j) <= raw {
				cand = true
				partial += abs(i - j)
				tauSeen[j], qSeen[i] = true, true
			}
		}
		if !cand || partial > raw {
			continue
		}
		upper := partial
		for r := 0; r < k; r++ {
			if !tauSeen[r] {
				upper += k - r
			}
			if !qSeen[r] {
				upper += k - r
			}
		}
		if upper > raw {
			count++
		}
	}
	return count
}

// TestQueryMatchesOracleAndUndecidedCount: under both Prune and PruneDrop
// the results are byte-identical to the linear-scan oracle, every distance —
// bound-accepted, patched or kernel-validated — equals the definitional
// kernel.Reference, and DFC is exactly the number of bound-undecided
// candidates.
func TestQueryMatchesOracleAndUndecidedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, k, domain = 400, 12, 300
	rs := difftest.RandomCollection(rng, n, k, domain)
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	s := NewSearcher(idx)
	dmax := ranking.MaxDistance(k)
	for trial := 0; trial < 60; trial++ {
		q := difftest.RandomRanking(rng, k, domain)
		if rng.Intn(2) == 0 {
			q = rs[rng.Intn(n)]
		}
		for _, raw := range []int{0, dmax / 10, dmax / 4, dmax / 2, dmax - 1} {
			want := o.SearchRaw(q, raw)
			for _, mode := range []Mode{Prune, PruneDrop} {
				ev := metric.New(nil)
				got, err := s.Query(q, raw, ev, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !difftest.Equal(got, want) {
					t.Fatalf("mode=%d raw=%d: got %v != oracle %v", mode, raw, got, want)
				}
				for _, r := range got {
					if ref := kernel.Reference(q, rs[r.ID]); r.Dist != ref {
						t.Fatalf("mode=%d raw=%d id=%d: distance %d, reference %d", mode, raw, r.ID, r.Dist, ref)
					}
				}
				if c := undecided(rs, q, s.keptPositions(q, raw, mode), raw); ev.Calls() != c {
					t.Fatalf("mode=%d raw=%d: DFC %d, %d undecided candidates", mode, raw, ev.Calls(), c)
				}
			}
		}
	}
}

// TestArenaLayout pins the packed-arena build: every list is a view into one
// shared arena holding exactly n·k postings, each rank-sorted with a correct
// block offset table.
func TestArenaLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, k, domain = 200, 8, 150
	rs := difftest.RandomCollection(rng, n, k, domain)
	idx, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.arena) != n*k {
		t.Fatalf("arena holds %d postings, want %d", len(idx.arena), n*k)
	}
	total := 0
	for item, l := range idx.lists {
		total += len(l.ids)
		if len(l.offsets) != k+1 || l.offsets[0] != 0 || int(l.offsets[k]) != len(l.ids) {
			t.Fatalf("item %d: offset table %v does not cover its %d postings", item, l.offsets, len(l.ids))
		}
		for j := 0; j < k; j++ {
			block := l.ids[l.offsets[j]:l.offsets[j+1]]
			for i, id := range block {
				if q := idx.rankings[id][j]; q != item {
					t.Fatalf("posting claims ranking %d has item %d at rank %d; it has %d", id, item, j, q)
				}
				if i > 0 && block[i-1] >= id {
					t.Fatalf("item %d block %d: ids not ascending at %d", item, j, i)
				}
			}
		}
	}
	if total != n*k {
		t.Fatalf("lists cover %d postings, want %d", total, n*k)
	}
}
