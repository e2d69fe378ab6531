package topk

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"topk/internal/dataset"
	"topk/internal/difftest"
	"topk/internal/ranking"
)

func testCollection(t *testing.T, n int) []Ranking {
	t.Helper()
	rs, err := dataset.Generate(dataset.NYTLike(n, 10))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// brute is the linear-scan reference for a static collection, backed by the
// shared differential-test oracle.
func brute(rs []Ranking, q Ranking, theta float64) []Result {
	res, _ := difftest.NewOracle(rs).Search(q, theta)
	return res
}

// checkIndexAgainstBrute runs the shared differential harness: random
// member and non-member queries across the threshold grid, byte-identical
// against the linear-scan oracle.
func checkIndexAgainstBrute(t *testing.T, idx Index, rs []Ranking, name string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	difftest.CheckSearch(t, name, idx, difftest.NewOracle(rs), rng, 20, difftest.DomainOf(rs))
}

func TestAllPublicIndexesAgree(t *testing.T) {
	rs := testCollection(t, 1500)
	builders := map[string]func() (Index, error){
		"CoarseIndex": func() (Index, error) { return NewCoarseIndex(rs) },
		"CoarseIndex+Drop": func() (Index, error) {
			return NewCoarseIndex(rs, WithThetaC(0.06), WithListDropping())
		},
		"CoarseIndex/RandomMedoids": func() (Index, error) {
			return NewCoarseIndex(rs, WithThetaC(0.3), WithRandomMedoids(3))
		},
		"InvertedIndex": func() (Index, error) { return NewInvertedIndex(rs) },
		"StaticInvertedIndex/FV": func() (Index, error) {
			return NewStaticInvertedIndex(rs, FilterValidate)
		},
		"StaticInvertedIndex/Merge": func() (Index, error) {
			return NewStaticInvertedIndex(rs, ListMerge)
		},
		"BlockedIndex":      func() (Index, error) { return NewBlockedIndex(rs) },
		"BlockedIndex/Drop": func() (Index, error) { return NewBlockedIndex(rs, WithBlockedDrop()) },
		"BKTree":            func() (Index, error) { return NewMetricTree(rs, BKTree) },
		"MTree":             func() (Index, error) { return NewMetricTree(rs, MTree) },
		"VPTree":            func() (Index, error) { return NewMetricTree(rs, VPTree) },
	}
	for name, build := range builders {
		idx, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if idx.Len() != len(rs) || idx.K() != 10 {
			t.Fatalf("%s: Len=%d K=%d", name, idx.Len(), idx.K())
		}
		checkIndexAgainstBrute(t, idx, rs, name)
		// ListMerge finalizes distances inside the merge and never invokes
		// the distance function — its DFC is zero by design (Section 7).
		if name != "StaticInvertedIndex/Merge" && idx.DistanceCalls() == 0 {
			t.Errorf("%s: no distance calls recorded", name)
		}
	}
}

func TestAutoTune(t *testing.T) {
	rs := testCollection(t, 3000)
	idx, err := NewCoarseIndex(rs, WithAutoTune(0.2))
	if err != nil {
		t.Fatal(err)
	}
	tc := idx.ThetaC()
	if tc <= 0 || tc >= 0.8 {
		t.Fatalf("auto-tuned θC = %f, want interior of (0, 0.8)", tc)
	}
	if idx.NumPartitions() <= 0 || idx.NumPartitions() > len(rs) {
		t.Fatalf("partitions = %d", idx.NumPartitions())
	}
	checkIndexAgainstBrute(t, idx, rs, "AutoTuned")
}

func TestEmptyCollectionRejected(t *testing.T) {
	if _, err := NewCoarseIndex(nil); err == nil {
		t.Error("coarse: empty accepted")
	}
	if _, err := NewInvertedIndex(nil); err == nil {
		t.Error("inverted: empty accepted")
	}
	if _, err := NewStaticInvertedIndex(nil, ListMerge); err == nil {
		t.Error("static inverted: empty accepted")
	}
	if _, err := NewBlockedIndex(nil); err == nil {
		t.Error("blocked: empty accepted")
	}
	if _, err := NewMetricTree(nil, BKTree); err == nil {
		t.Error("tree: empty accepted")
	}
}

func TestInvalidCollectionRejected(t *testing.T) {
	mixed := []Ranking{{1, 2, 3}, {1, 2}}
	dup := []Ranking{{1, 1, 3}}
	for name, rs := range map[string][]Ranking{"mixed": mixed, "dup": dup} {
		if _, err := NewCoarseIndex(rs); err == nil {
			t.Errorf("coarse: %s accepted", name)
		}
		if _, err := NewInvertedIndex(rs); err == nil {
			t.Errorf("inverted: %s accepted", name)
		}
	}
}

func TestQuerySizeMismatch(t *testing.T) {
	rs := testCollection(t, 100)
	idx, _ := NewInvertedIndex(rs)
	if _, err := idx.Search(Ranking{1, 2, 3}, 0.1); err == nil {
		t.Error("size mismatch accepted")
	}
	tree, _ := NewMetricTree(rs, BKTree)
	if _, err := tree.Search(Ranking{1, 2, 3}, 0.1); err == nil {
		t.Error("tree size mismatch accepted")
	}
}

// TestQueryContract pins the duplicate-free, fixed-size top-k-list contract
// on the query side: every kind, through Search and NearestNeighbors alike,
// rejects a query with a repeated item or of the wrong size with the same
// sentinel error.
func TestQueryContract(t *testing.T) {
	rs := testCollection(t, 200)
	type queryer interface {
		Index
		NearestNeighborSearcher
	}
	builders := map[string]func() (queryer, error){
		"coarse":        func() (queryer, error) { return NewCoarseIndex(rs) },
		"coarse-drop":   func() (queryer, error) { return NewCoarseIndex(rs, WithThetaC(0.06), WithListDropping()) },
		"inverted":      func() (queryer, error) { return NewStaticInvertedIndex(rs, FilterValidate) },
		"inverted-drop": func() (queryer, error) { return NewInvertedIndex(rs) },
		"merge":         func() (queryer, error) { return NewStaticInvertedIndex(rs, ListMerge) },
		"blocked":       func() (queryer, error) { return NewBlockedIndex(rs) },
		"blocked-drop":  func() (queryer, error) { return NewBlockedIndex(rs, WithBlockedDrop()) },
		"bktree":        func() (queryer, error) { return NewMetricTree(rs, BKTree) },
		"mtree":         func() (queryer, error) { return NewMetricTree(rs, MTree) },
		"vptree":        func() (queryer, error) { return NewMetricTree(rs, VPTree) },
		"hybrid":        func() (queryer, error) { return NewHybridIndex(rs) },
		"hybrid/adaptsearch": func() (queryer, error) {
			h, err := NewHybridIndex(rs)
			if err == nil {
				err = h.Force("adaptsearch")
			}
			return h, err
		},
	}
	bad := []struct {
		name string
		q    Ranking
		want error
	}{
		{"repeated item", Ranking{1, 1, 2, 3, 4, 5, 6, 7, 8, 9}, ranking.ErrDuplicateItem},
		{"wrong size", Ranking{1, 2, 3}, ranking.ErrSizeMismatch},
	}
	for name, build := range builders {
		idx, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tc := range bad {
			if _, err := idx.Search(tc.q, 0.2); !errors.Is(err, tc.want) {
				t.Errorf("%s: Search(%s) = %v, want %v", name, tc.name, err, tc.want)
			}
			if _, err := idx.NearestNeighbors(tc.q, 3); !errors.Is(err, tc.want) {
				t.Errorf("%s: NearestNeighbors(%s) = %v, want %v", name, tc.name, err, tc.want)
			}
		}
	}
}

func TestConcurrentSearch(t *testing.T) {
	rs := testCollection(t, 800)
	idx, err := NewCoarseIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				q := rs[rng.Intn(len(rs))]
				got, err := idx.Search(q, 0.2)
				if err != nil {
					errs <- err
					return
				}
				want := brute(rs, q, 0.2)
				if len(got) != len(want) {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestHelpers(t *testing.T) {
	a := Ranking{1, 2, 3}
	b := Ranking{3, 2, 1}
	if Distance(a, a) != 0 {
		t.Error("Distance self")
	}
	if Distance(a, b) != KendallTau(a, b)+1 { // F=4, K=3 for a reversal
		t.Errorf("F=%d K=%d", Distance(a, b), KendallTau(a, b))
	}
	if NormalizedDistance(a, b) != float64(Distance(a, b))/float64(MaxDistance(3)) {
		t.Error("NormalizedDistance inconsistent")
	}
	r, err := ParseRanking("[5, 4, 3]")
	if err != nil || !r.Equal(Ranking{5, 4, 3}) {
		t.Errorf("ParseRanking: %v %v", r, err)
	}
}
