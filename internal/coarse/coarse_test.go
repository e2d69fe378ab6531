package coarse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"topk/internal/difftest"
	"topk/internal/metric"
	"topk/internal/ranking"
)

func randomRanking(rng *rand.Rand, k, v int) ranking.Ranking {
	return difftest.RandomRanking(rng, k, v)
}

// clusteredCollection produces near-duplicate groups, the structure the
// coarse index exploits: seeds plus perturbed copies.
func clusteredCollection(seed int64, nSeeds, copies, k, v int) []ranking.Ranking {
	rng := rand.New(rand.NewSource(seed))
	var rs []ranking.Ranking
	for s := 0; s < nSeeds; s++ {
		base := randomRanking(rng, k, v)
		rs = append(rs, base)
		for c := 0; c < copies; c++ {
			r := base.Clone()
			// A couple of adjacent swaps and maybe one substitution.
			for m := 0; m < 1+rng.Intn(3); m++ {
				i := rng.Intn(k - 1)
				r[i], r[i+1] = r[i+1], r[i]
			}
			if rng.Intn(3) == 0 {
				for {
					it := ranking.Item(rng.Intn(v))
					if !r.Contains(it) {
						r[rng.Intn(k)] = it
						break
					}
				}
			}
			rs = append(rs, r)
		}
	}
	return rs
}

// bruteResults and equalResults delegate to the shared differential-test
// harness (internal/difftest) instead of a package-local scan loop.
func bruteResults(rs []ranking.Ranking, q ranking.Ranking, rawTheta int) []ranking.Result {
	return difftest.NewOracle(rs).SearchRaw(q, rawTheta)
}

func equalResults(a, b []ranking.Result) bool { return difftest.Equal(a, b) }

func TestEmpty(t *testing.T) {
	idx, err := New(nil, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(idx)
	if got, err := s.Query(ranking.Ranking{1, 2}, 5, nil, FV); err != nil || got != nil {
		t.Fatalf("empty query: %v %v", got, err)
	}
}

func TestQueryMismatch(t *testing.T) {
	idx, _ := New([]ranking.Ranking{{1, 2, 3}}, 5, Options{})
	s := NewSearcher(idx)
	if _, err := s.Query(ranking.Ranking{1, 2}, 5, nil, FV); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if got, _ := s.Query(ranking.Ranking{4, 5, 6}, -1, nil, FV); got != nil {
		t.Fatal("negative threshold returned results")
	}
}

func TestPartitionInvariants(t *testing.T) {
	rs := clusteredCollection(1, 40, 12, 10, 400)
	for _, strat := range []PartitionStrategy{BKTreeCut, RandomMedoids} {
		for _, thetaC := range []int{0, 11, 55} {
			idx, err := New(rs, thetaC, Options{Strategy: strat, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			sizes := idx.PartitionSizes()
			if len(sizes) != idx.NumPartitions() {
				t.Fatal("partition count mismatch")
			}
			total := 0
			for _, s := range sizes {
				total += s
			}
			if total != len(rs) {
				t.Fatalf("%v θC=%d: partitions cover %d of %d", strat, thetaC, total, len(rs))
			}
			// Every member within θC of its medoid.
			for ci, c := range idx.clusters {
				for _, id := range c.part.Members() {
					if d := ranking.Footrule(rs[idx.medoids[ci]], rs[id]); d > thetaC {
						t.Fatalf("%v θC=%d: member at %d from medoid", strat, thetaC, d)
					}
				}
			}
		}
	}
}

func TestCoarseMatchesBruteForce(t *testing.T) {
	rs := clusteredCollection(2, 60, 10, 10, 500)
	rng := rand.New(rand.NewSource(3))
	for _, strat := range []PartitionStrategy{BKTreeCut, RandomMedoids} {
		for _, thetaC := range []int{0, 6, 27, 55} {
			idx, err := New(rs, thetaC, Options{Strategy: strat, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSearcher(idx)
			for trial := 0; trial < 25; trial++ {
				// Mix workload queries (perturbed members) and random ones.
				var q ranking.Ranking
				if trial%2 == 0 {
					q = rs[rng.Intn(len(rs))]
				} else {
					q = randomRanking(rng, 10, 500)
				}
				rawTheta := rng.Intn(45)
				for _, mode := range []Mode{FV, FVDrop} {
					got, err := s.Query(q, rawTheta, nil, mode)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteResults(rs, q, rawTheta)
					if !equalResults(got, want) {
						t.Fatalf("%v θC=%d θ=%d mode=%d: got %d, want %d results",
							strat, thetaC, rawTheta, mode, len(got), len(want))
					}
				}
			}
		}
	}
}

func TestRelaxedThresholdOverflow(t *testing.T) {
	// θ+θC ≥ dmax triggers the exhaustive medoid scan, which must stay
	// correct even for disjoint medoids.
	rs := clusteredCollection(4, 30, 6, 10, 400)
	idx, err := New(rs, 80, Options{}) // θC=80, dmax=110
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		q := randomRanking(rng, 10, 500)
		rawTheta := 33 // 33+80 > 110
		got, st, err := s.QueryStats(q, rawTheta, nil, FV)
		if err != nil {
			t.Fatal(err)
		}
		if !st.ExhaustiveScan {
			t.Fatal("expected exhaustive scan fallback")
		}
		if !equalResults(got, bruteResults(rs, q, rawTheta)) {
			t.Fatal("fallback returned wrong results")
		}
	}
}

func TestStatsBreakdown(t *testing.T) {
	rs := clusteredCollection(6, 80, 10, 10, 500)
	idx, _ := New(rs, 27, Options{})
	s := NewSearcher(idx)
	q := rs[3]
	_, st, err := s.QueryStats(q, 11, nil, FV)
	if err != nil {
		t.Fatal(err)
	}
	if st.MedoidsRetrieved <= 0 {
		t.Fatal("no medoids retrieved for a member query")
	}
	if st.CandidateRankings < st.MedoidsRetrieved {
		t.Fatalf("candidates %d < medoids %d", st.CandidateRankings, st.MedoidsRetrieved)
	}
}

func TestThetaCTradeoff(t *testing.T) {
	// Larger θC ⇒ fewer partitions; θC=0 groups only duplicates.
	rs := clusteredCollection(7, 50, 10, 10, 500)
	prev := len(rs) + 1
	for _, thetaC := range []int{0, 11, 33, 110} {
		idx, _ := New(rs, thetaC, Options{})
		np := idx.NumPartitions()
		if np > prev {
			t.Fatalf("θC=%d: partitions grew from %d to %d", thetaC, prev, np)
		}
		prev = np
	}
	idxAll, _ := New(rs, ranking.MaxDistance(10), Options{})
	if idxAll.NumPartitions() != 1 {
		t.Fatalf("θC=dmax: %d partitions", idxAll.NumPartitions())
	}
}

func TestDuplicatesValidatedOnce(t *testing.T) {
	// The paper notes Coarse can perform fewer DFC than the result size:
	// exact duplicates inside a partition are found by one tree node visit
	// each, but identical rankings at distance 0 from the medoid chain
	// under edge 0. Verify the result is correct and DFC < brute candidates.
	base := ranking.Ranking{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	rs := make([]ranking.Ranking, 200)
	for i := range rs {
		rs[i] = base.Clone()
	}
	idx, _ := New(rs, 55, Options{})
	s := NewSearcher(idx)
	ev := metric.New(nil)
	got, err := s.Query(base, 0, ev, FV)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("found %d of 200 duplicates", len(got))
	}
	if ev.Calls() >= 200 {
		t.Fatalf("DFC=%d not below candidate count 200", ev.Calls())
	}
}

func TestBuildDFCReported(t *testing.T) {
	rs := clusteredCollection(8, 20, 5, 10, 300)
	idx, _ := New(rs, 11, Options{})
	if idx.BuildDFC == 0 {
		t.Fatal("construction DFC not recorded")
	}
	idxR, _ := New(rs, 11, Options{Strategy: RandomMedoids, Seed: 3})
	if idxR.BuildDFC == 0 {
		t.Fatal("random-medoid construction DFC not recorded")
	}
}

func TestQuickCoarseNoFalseNegatives(t *testing.T) {
	rs := clusteredCollection(9, 30, 8, 8, 200)
	idx, _ := New(rs, 14, Options{})
	s := NewSearcher(idx)
	f := func(seed int64, thSeed uint8, dropIt bool) bool {
		q := randomRanking(rand.New(rand.NewSource(seed)), 8, 200)
		rawTheta := int(thSeed) % 40
		mode := FV
		if dropIt {
			mode = FVDrop
		}
		got, err := s.Query(q, rawTheta, nil, mode)
		if err != nil {
			return false
		}
		return equalResults(got, bruteResults(rs, q, rawTheta))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCoarseQuery(b *testing.B) {
	rs := clusteredCollection(20, 500, 20, 10, 4000)
	idx, _ := New(rs, 55, Options{})
	s := NewSearcher(idx)
	rng := rand.New(rand.NewSource(21))
	qs := make([]ranking.Ranking, 64)
	for i := range qs {
		qs[i] = rs[rng.Intn(len(rs))]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := s.Query(qs[i%len(qs)], 22, nil, FV)
		sink = len(r)
	}
}

var sink int
