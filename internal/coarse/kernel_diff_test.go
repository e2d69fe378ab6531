package coarse

import (
	"math/rand"
	"testing"

	"topk/internal/difftest"
	"topk/internal/kernel"
	"topk/internal/metric"
	"topk/internal/ranking"
)

// TestQueryMatchesOracleAndFilterCount: results byte-identical to the
// linear-scan oracle with every distance equal to the definitional
// kernel.Reference, and DFC accounted exactly: the filter phase costs one
// call per medoid under the exhaustive scan, one per distinct medoid in the
// query's lists otherwise, and validation adds the BK-tree's own calls on
// the partitions of the medoids within the relaxed threshold. A large θC
// forces the relaxed threshold past dmax at high θ (the ExhaustiveScan
// branch), while small θ exercises the normal inverted-index filtering.
func TestQueryMatchesOracleAndFilterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k, domain = 300, 10, 200
	rs := difftest.RandomCollection(rng, n, k, domain)
	dmax := ranking.MaxDistance(k)
	idx, err := New(rs, dmax/2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := difftest.NewOracle(rs)
	s := NewSearcher(idx)
	sawExhaustive := false
	for trial := 0; trial < 40; trial++ {
		q := difftest.RandomRanking(rng, k, domain)
		if rng.Intn(2) == 0 {
			q = rs[rng.Intn(n)]
		}
		for _, raw := range []int{0, dmax / 8, dmax / 2, dmax - 1} {
			ev := metric.New(nil)
			got, st, err := s.QueryStats(q, raw, ev, FV)
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
			relaxed := raw + idx.thetaC
			if st.ExhaustiveScan != (relaxed >= dmax) {
				t.Fatalf("raw=%d: exhaustive=%v with relaxed threshold %d, dmax %d", raw, st.ExhaustiveScan, relaxed, dmax)
			}
			sawExhaustive = sawExhaustive || st.ExhaustiveScan
			filter := uint64(len(idx.medoids))
			if !st.ExhaustiveScan {
				seen := make(map[ranking.ID]bool)
				for _, it := range q {
					ids, _ := idx.medoidIdx.Postings(it)
					for _, id := range ids {
						seen[id] = true
					}
				}
				filter = uint64(len(seen))
			}
			hits := 0
			validate := metric.New(nil)
			for i, id := range idx.medoids {
				if kernel.Reference(q, rs[id]) <= relaxed {
					hits++
					c := idx.clusters[i]
					c.tree.SearchPartition(c.part, q, raw, validate)
				}
			}
			if st.MedoidsRetrieved != hits {
				t.Fatalf("raw=%d: %d medoids retrieved, %d within the relaxed threshold", raw, st.MedoidsRetrieved, hits)
			}
			if want := filter + validate.Calls(); ev.Calls() != want {
				t.Fatalf("raw=%d: DFC %d, want %d filter + %d validation", raw, ev.Calls(), filter, validate.Calls())
			}
		}
	}
	if !sawExhaustive {
		t.Fatal("the exhaustive-scan branch was never exercised")
	}
}
