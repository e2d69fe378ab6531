package topk

import (
	"math/rand"
	"sort"
	"testing"
)

func bruteNN(rs []Ranking, q Ranking, n int) []Result {
	all := make([]Result, len(rs))
	for id, r := range rs {
		all[id] = Result{ID: ID(id), Dist: Distance(q, r)}
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

func TestNearestNeighborsAllIndexes(t *testing.T) {
	rs := testCollection(t, 900)
	searchers := map[string]NearestNeighborSearcher{}
	if idx, err := NewCoarseIndex(rs, WithThetaC(0.3)); err == nil {
		searchers["coarse"] = idx
	} else {
		t.Fatal(err)
	}
	if idx, err := NewInvertedIndex(rs); err == nil {
		searchers["inverted"] = idx
	} else {
		t.Fatal(err)
	}
	for name, alg := range map[string]Algorithm{"static-fv": FilterValidate, "merge": ListMerge} {
		idx, err := NewStaticInvertedIndex(rs, alg)
		if err != nil {
			t.Fatal(err)
		}
		searchers[name] = idx
	}
	if idx, err := NewBlockedIndex(rs, WithBlockedDrop()); err == nil {
		searchers["blocked"] = idx
	} else {
		t.Fatal(err)
	}
	for _, kind := range []TreeKind{BKTree, MTree, VPTree} {
		idx, err := NewMetricTree(rs, kind)
		if err != nil {
			t.Fatal(err)
		}
		searchers[map[TreeKind]string{BKTree: "bktree", MTree: "mtree", VPTree: "vptree"}[kind]] = idx
	}

	rng := rand.New(rand.NewSource(9))
	for name, s := range searchers {
		for trial := 0; trial < 10; trial++ {
			q := rs[rng.Intn(len(rs))]
			n := 1 + rng.Intn(12)
			got, err := s.NearestNeighbors(q, n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := bruteNN(rs, q, n)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: got %d results, want %d", name, n, len(got), len(want))
			}
			// Distances must agree exactly; id ties may legitimately differ
			// only when distances tie — our tie-break is deterministic, so
			// require full equality.
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: result %d = %v, want %v", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNearestNeighborsEdgeCases(t *testing.T) {
	rs := testCollection(t, 100)
	idx, _ := NewInvertedIndex(rs)
	if got, err := idx.NearestNeighbors(rs[0], 0); err != nil || got != nil {
		t.Fatalf("n=0: %v %v", got, err)
	}
	got, err := idx.NearestNeighbors(rs[0], 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("n>len: %d results", len(got))
	}
	tree, _ := NewMetricTree(rs, BKTree)
	if _, err := tree.NearestNeighbors(Ranking{1, 2}, 3); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestNearestNeighborsFindsZeroOverlapNeighbors(t *testing.T) {
	// A query disjoint from everything: all rankings are at dmax; KNN must
	// still return n of them (the back-fill path of the expanding search).
	rs := []Ranking{
		{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {11, 12, 13, 14, 15},
	}
	idx, err := NewInvertedIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	q := Ranking{100, 101, 102, 103, 104}
	got, err := idx.NearestNeighbors(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Dist != MaxDistance(5) || got[1].Dist != MaxDistance(5) {
		t.Fatalf("disjoint KNN: %v", got)
	}
}
