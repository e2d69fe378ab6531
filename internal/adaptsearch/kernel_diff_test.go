package adaptsearch

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"topk/internal/difftest"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// verified models the query by brute force and returns the number of
// candidates it must verify: records sharing at least ℓ items with the query
// inside the length-p prefixes of the frequency order, for the (ℓ, p) the
// adaptive rule settles on. Prefix intersections and list lengths are
// counted straight off the sorted records — no delta index, no stamps.
func verified(idx *Index, q ranking.Ranking, raw int, weight float64) uint64 {
	k := idx.k
	omega := max(ranking.RequiredOverlap(raw, k), 1)
	qs := slices.Clone(q)
	slices.SortFunc(qs, func(a, b ranking.Item) int {
		oa, okA := idx.order[a]
		ob, okB := idx.order[b]
		switch {
		case !okA && !okB:
			return cmp.Compare(a, b)
		case !okA:
			return -1
		case !okB:
			return 1
		default:
			return cmp.Compare(oa, ob)
		}
	})
	candidates := func(ell, p int) int {
		c := 0
		for _, rec := range idx.sorted {
			shared := 0
			for _, it := range qs[:p] {
				if slices.Contains(rec[:p], it) {
					shared++
				}
			}
			if shared >= ell {
				c++
			}
		}
		return c
	}
	listLen := func(item ranking.Item, j int) int {
		c := 0
		for _, rec := range idx.sorted {
			if rec[j] == item {
				c++
			}
		}
		return c
	}
	ell, p := 1, min(k-omega+1, k)
	for maxL := max(min(idx.MaxSchemes, omega), 1); ell < maxL && p < k; {
		extra := 0
		for j := 0; j <= p; j++ {
			extra += listLen(qs[p], j)
		}
		for i := 0; i < p; i++ {
			extra += listLen(qs[i], p)
		}
		if float64(extra) >= 0.5*float64(candidates(ell, p))*weight {
			break
		}
		ell++
		p++
	}
	return uint64(candidates(ell, p))
}

// TestQueryMatchesOracleAndVerifiedCount: results byte-identical to the
// linear-scan oracle, every distance equal to the definitional
// kernel.Reference, and DFC exactly the number of candidates with at least ℓ
// shared prefix items under the scheme the adaptive rule picks.
func TestQueryMatchesOracleAndVerifiedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
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
			ev := metric.New(nil)
			got, err := s.Query(q, raw, ev)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.SearchRaw(q, raw); !difftest.Equal(got, want) {
				t.Fatalf("raw=%d: got %v != oracle %v", raw, got, want)
			}
			for _, r := range got {
				if ref := kernel.Reference(q, rs[r.ID]); r.Dist != ref {
					t.Fatalf("raw=%d id=%d: distance %d, reference %d", raw, r.ID, r.Dist, ref)
				}
			}
			if c := verified(idx, q, raw, s.VerifyCostWeight); ev.Calls() != c {
				t.Fatalf("raw=%d: DFC %d, %d candidates to verify", raw, ev.Calls(), c)
			}
		}
	}
}
