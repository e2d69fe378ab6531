package topk

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"topk/internal/difftest"
	"topk/internal/knn"
	"topk/internal/ranking"
	"topk/internal/shard"
)

// knnSubject is an index whose NearestNeighbors runs the native posting-list
// KNN: the inverted facade, the hybrid (which routes KNN to its inverted
// backend) and a sharded collection of hybrids.
type knnSubject interface {
	difftest.Mutable
	NearestNeighbors(q Ranking, n int) ([]Result, error)
}

// knnSubjects builds every subject over the same external-id slot array.
// Automatic compaction and epoch folds are off, so tombstones, post-build
// postings and non-monotonic id maps stay in place for the queries.
func knnSubjects(t testing.TB, slots []Ranking) map[string]knnSubject {
	t.Helper()
	inv, err := NewInvertedIndexFromSlots(slots, WithCompactionRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := NewHybridIndexFromSlots(slots, WithHybridDeltaRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.New(slots, 3, func(rs []ranking.Ranking) (shard.Index, error) {
		return NewHybridIndexFromSlots(rs, WithHybridDeltaRatio(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]knnSubject{"inverted": inv, "hybrid": hyb, "sharded": sh}
}

// reductionOver runs knn.Expanding over the public range search of the same
// index: the doubling-radius reduction the native path replaced, kept as a
// second reference beside the linear-scan oracle.
type reductionOver struct {
	idx difftest.Searcher
	o   *difftest.Oracle
}

func (r reductionOver) Query(q ranking.Ranking, raw int) ([]ranking.Result, error) {
	// +0.5 lands RawThreshold's floor exactly on raw.
	return r.idx.Search(q, (float64(raw)+0.5)/float64(ranking.MaxDistance(r.o.K())))
}
func (r reductionOver) Len() int                { return r.o.Len() }
func (r reductionOver) K() int                  { return r.o.K() }
func (r reductionOver) IDSpace() int            { return r.o.NumSlots() }
func (r reductionOver) Live(id ranking.ID) bool { return r.o.Live(id) }

// checkKNN holds idx byte-identical — ids, distances, order — to the oracle
// and to the reduction for every (query, n) pair.
func checkKNN(t testing.TB, name string, idx knnSubject, o *difftest.Oracle, queries []Ranking, ns []int) {
	t.Helper()
	for _, q := range queries {
		for _, n := range ns {
			got, err := idx.NearestNeighbors(q, n)
			if err != nil {
				t.Fatalf("%s: NearestNeighbors(n=%d): %v", name, n, err)
			}
			if want := o.NearestNeighbors(q, n); !difftest.Equal(got, want) {
				t.Fatalf("%s n=%d q=%v: diverged from the oracle\n got %v\nwant %v", name, n, q, got, want)
			}
			red, err := knn.Expanding(reductionOver{idx, o}, q, n)
			if err != nil {
				t.Fatalf("%s: reduction(n=%d): %v", name, n, err)
			}
			if !difftest.Equal(got, red) {
				t.Fatalf("%s n=%d q=%v: diverged from knn.Expanding\n got %v\nwant %v", name, n, q, got, red)
			}
		}
	}
}

// mixedQueries draws member queries (overlap guaranteed) and fresh random
// ones over the collection's domain.
func mixedQueries(rng *rand.Rand, o *difftest.Oracle, count, domain int) []Ranking {
	var qs []Ranking
	ids := o.LiveIDs()
	for i := 0; i < count; i++ {
		if len(ids) > 0 && i%2 == 0 {
			qs = append(qs, o.Slots()[ids[rng.Intn(len(ids))]])
		} else {
			qs = append(qs, difftest.RandomRanking(rng, o.K(), domain))
		}
	}
	return qs
}

// TestKNNNativeDifferential is the acceptance contract of the native KNN:
// in every state a mutable index can reach, InvertedIndex, HybridIndex and a
// 3-shard collection answer byte-identically to the linear-scan oracle and
// to the expanding-radius reduction over the same index.
func TestKNNNativeDifferential(t *testing.T) {
	const k, domain = 6, 40 // small domain: distance ties at the cut are the norm
	apply := func(t *testing.T, idx knnSubject, o *difftest.Oracle, op string, id ID, r Ranking) {
		t.Helper()
		var err error
		switch op {
		case "insert":
			var got ID
			if got, err = idx.Insert(r); err == nil && got != o.Insert(r) {
				t.Fatalf("insert returned id %d, oracle disagrees", got)
			}
		case "delete":
			if err = idx.Delete(id); err == nil {
				err = o.Delete(id)
			}
		case "update":
			if err = idx.Update(id, r); err == nil {
				err = o.Update(id, r)
			}
		}
		if err != nil {
			t.Fatalf("%s(%d): %v", op, id, err)
		}
	}
	cases := []struct {
		name   string
		size   int
		mutate func(t *testing.T, rng *rand.Rand, idx knnSubject, o *difftest.Oracle)
		// queries overrides the default mixed member/random workload.
		queries func(rng *rand.Rand, o *difftest.Oracle) []Ranking
		ns      []int
	}{
		{name: "fresh build", size: 300, ns: []int{1, 3, 10, 50}},
		{
			name: "post-build inserts", size: 150, ns: []int{1, 5, 40},
			mutate: func(t *testing.T, rng *rand.Rand, idx knnSubject, o *difftest.Oracle) {
				for i := 0; i < 200; i++ {
					apply(t, idx, o, "insert", 0, difftest.RandomRanking(rng, k, domain))
				}
			},
		},
		{
			name: "deletes", size: 300, ns: []int{1, 5, 40},
			mutate: func(t *testing.T, rng *rand.Rand, idx knnSubject, o *difftest.Oracle) {
				for _, id := range o.LiveIDs() {
					if id%3 != 1 {
						apply(t, idx, o, "delete", id, nil)
					}
				}
			},
		},
		{
			name: "random mutations (non-monotonic ids)", size: 200, ns: []int{1, 4, 25, 120},
			mutate: func(t *testing.T, rng *rand.Rand, idx knnSubject, o *difftest.Oracle) {
				difftest.Mutate(t, "mutate", idx, o, rng, 500, domain)
			},
		},
		{
			// Few or no rankings share an item with the query, so most of the
			// answer is the dmax fill — walked across tombstones and, after the
			// updates, in external rather than internal id order.
			name: "dmax fill", size: 120, ns: []int{1, 7, 60, 119},
			mutate: func(t *testing.T, rng *rand.Rand, idx knnSubject, o *difftest.Oracle) {
				for _, id := range o.LiveIDs() {
					switch id % 5 {
					case 0:
						apply(t, idx, o, "delete", id, nil)
					case 1:
						apply(t, idx, o, "update", id, difftest.RandomRanking(rng, k, domain))
					}
				}
				// Two rankings over items nothing else has.
				apply(t, idx, o, "insert", 0, Ranking{900, 901, 902, 903, 904, 905})
				apply(t, idx, o, "update", 7, Ranking{905, 904, 903, 800, 801, 802})
			},
			queries: func(rng *rand.Rand, o *difftest.Oracle) []Ranking {
				return []Ranking{
					{900, 901, 902, 903, 904, 905}, // overlaps exactly two rankings
					{700, 701, 702, 703, 704, 705}, // overlaps none
					{800, 700, 701, 702, 703, 704}, // overlaps one, barely
				}
			},
		},
		{
			name: "n at and past the live count", size: 60, ns: []int{38, 39, 40, 41, 400},
			mutate: func(t *testing.T, rng *rand.Rand, idx knnSubject, o *difftest.Oracle) {
				for _, id := range o.LiveIDs()[:20] {
					apply(t, idx, o, "delete", id, nil)
				}
			},
		},
		{
			name: "all tombstoned, then one insert", size: 30, ns: []int{1, 5},
			mutate: func(t *testing.T, rng *rand.Rand, idx knnSubject, o *difftest.Oracle) {
				for _, id := range o.LiveIDs() {
					apply(t, idx, o, "delete", id, nil)
				}
				q := difftest.RandomRanking(rng, k, domain)
				if got, err := idx.NearestNeighbors(q, 3); err != nil || len(got) != 0 {
					t.Fatalf("all-tombstone index answered %v, %v", got, err)
				}
				apply(t, idx, o, "insert", 0, q)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := rand.New(rand.NewSource(97))
			rs := difftest.RandomCollection(seed, tc.size, k, domain)
			for name, idx := range knnSubjects(t, rs) {
				rng := rand.New(rand.NewSource(101))
				o := difftest.NewOracle(rs)
				if tc.mutate != nil {
					tc.mutate(t, rng, idx, o)
				}
				queries := mixedQueries(rng, o, 12, domain)
				if tc.queries != nil {
					queries = tc.queries(rng, o)
				}
				checkKNN(t, name, idx, o, queries, tc.ns)
			}
		})
	}
}

// TestKNNNativeTieDecidedByExternalID pins the one place internal and
// external id order disagree: after an Update the ranking under external id 1
// lives in the last internal slot, behind the ranking under id 2 that ties
// with it at the cut. The cut must keep id 1.
func TestKNNNativeTieDecidedByExternalID(t *testing.T) {
	q := Ranking{1, 2, 3, 4}
	tied := Ranking{2, 1, 3, 4} // distance 2 from q
	rs := []Ranking{
		q.Clone(), {1, 2, 4, 3}, tied.Clone(), // shard 0 of the sharded subject
		{50, 51, 52, 53}, {54, 55, 56, 57}, {58, 59, 60, 61},
		{62, 63, 64, 65}, {66, 67, 68, 69}, {70, 71, 72, 73},
	}
	for name, idx := range knnSubjects(t, rs) {
		o := difftest.NewOracle(rs)
		if err := idx.Update(1, tied); err != nil {
			t.Fatal(err)
		}
		if err := o.Update(1, tied); err != nil {
			t.Fatal(err)
		}
		got, err := idx.NearestNeighbors(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := []Result{{ID: 0, Dist: 0}, {ID: 1, Dist: 2}}; !difftest.Equal(got, want) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
		checkKNN(t, name, idx, o, []Ranking{q, tied}, []int{1, 2, 3, 9})
	}
	// The premise: the facade's id map really is out of order here.
	inv, _ := NewInvertedIndex(rs, WithCompactionRatio(0))
	if err := inv.Update(1, tied); err != nil {
		t.Fatal(err)
	}
	if inv.ids.inOrder {
		t.Fatal("update left the id map monotonic: the tie case is not exercised")
	}
}

// TestKNNNativeEmptyIndex covers an index built over zero live rankings: an
// empty answer (not a size error) before the first insert defines k, the
// inserted ranking after — while the sharded subject's other two shards stay
// structurally empty.
func TestKNNNativeEmptyIndex(t *testing.T) {
	for name, idx := range knnSubjects(t, make([]Ranking, 4)) {
		o := difftest.NewOracle(make([]Ranking, 4))
		if got, err := idx.NearestNeighbors(Ranking{1, 2, 3}, 3); err != nil || len(got) != 0 {
			t.Fatalf("%s: empty index answered %v, %v", name, got, err)
		}
		r := Ranking{5, 6, 7}
		id, err := idx.Insert(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := o.Insert(r); id != want {
			t.Fatalf("%s: insert id %d, oracle %d", name, id, want)
		}
		checkKNN(t, name, idx, o, []Ranking{r, {7, 8, 9}, {1, 2, 3}}, []int{1, 2})
	}
}

// TestKNNNativeQueryErrors checks that a query of the wrong size or with a
// repeated item is rejected with the typed errors of the range path.
func TestKNNNativeQueryErrors(t *testing.T) {
	rs := difftest.RandomCollection(rand.New(rand.NewSource(3)), 40, 5, 30)
	long := make(Ranking, 20) // past the map cutoff of Ranking.Validate
	for i := range long {
		long[i] = Item(i)
	}
	long[19] = long[0]
	for name, idx := range knnSubjects(t, rs) {
		if _, err := idx.NearestNeighbors(Ranking{1, 2, 3}, 3); !errors.Is(err, ranking.ErrSizeMismatch) {
			t.Fatalf("%s: size mismatch error = %v", name, err)
		}
		if _, err := idx.NearestNeighbors(long, 3); !errors.Is(err, ranking.ErrSizeMismatch) {
			t.Fatalf("%s: size mismatch error = %v", name, err)
		}
		if _, err := idx.NearestNeighbors(Ranking{1, 2, 3, 4, 1}, 3); !errors.Is(err, ranking.ErrDuplicateItem) {
			t.Fatalf("%s: duplicate item error = %v", name, err)
		}
		if got, err := idx.NearestNeighbors(rs[0], 0); err != nil || got != nil {
			t.Fatalf("%s: n=0 answered %v, %v", name, got, err)
		}
	}
}

// TestKNNNativePooledSearcherGrows reuses one pooled searcher across a
// collection that more than doubles: its accumulator, sized on the first
// query, must grow to cover the ids inserted since.
func TestKNNNativePooledSearcherGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rs := difftest.RandomCollection(rng, 100, 6, 40)
	for name, idx := range knnSubjects(t, rs) {
		o := difftest.NewOracle(rs)
		checkKNN(t, name, idx, o, mixedQueries(rng, o, 4, 40), []int{5})
		var added []Ranking
		for i := 0; i < 150; i++ {
			r := difftest.RandomRanking(rng, 6, 40)
			if _, err := idx.Insert(r); err != nil {
				t.Fatal(err)
			}
			o.Insert(r)
			added = append(added, r)
		}
		checkKNN(t, name, idx, o, added[140:], []int{1, 5, 30})
	}
}

// TestKNNNativeBypassesReductionAndPlanner asserts how the default hybrid and
// the inverted facade answer KNN: no distance function is called (the
// reduction's range probes would count thousands) and every query is one plan
// on inverted. (The name predates the removal of the planner.)
func TestKNNNativeBypassesReductionAndPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := difftest.RandomCollection(rng, 400, 8, 120)
	inv, err := NewInvertedIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	h := hybridFor(t, rs)
	callsInv, callsHyb := inv.DistanceCalls(), h.DistanceCalls()
	plans := h.PlanStats()[hybridInverted].Plans
	const queries = 50
	for i := 0; i < queries; i++ {
		q := difftest.RandomRanking(rng, 8, 120)
		if _, err := inv.NearestNeighbors(q, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := h.NearestNeighbors(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	if d := inv.DistanceCalls() - callsInv; d != 0 {
		t.Errorf("InvertedIndex KNN evaluated %d distances, want 0", d)
	}
	if d := h.DistanceCalls() - callsHyb; d != 0 {
		t.Errorf("HybridIndex KNN evaluated %d distances, want 0", d)
	}
	if p := h.PlanStats()[hybridInverted].Plans; p-plans != queries {
		t.Errorf("inverted: %d new plans, want %d", p-plans, queries)
	}
	for _, st := range h.PlanStats() {
		if st.Backend != "inverted" && st.Plans != 0 {
			t.Errorf("KNN planned %d queries on %s", st.Plans, st.Backend)
		}
	}
}

// TestHybridKNNFallbackLeavesExplorationAlone covers the reduction path: a
// hybrid forced onto adaptsearch answers KNN through knn.Expanding's range
// probes, exactly, and each query — not each probe — is one plan on the
// forced backend only. (The name predates the removal of the planner, whose
// exploration schedule the probes once leaked into.)
func TestHybridKNNFallbackLeavesExplorationAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rs := difftest.RandomCollection(rng, 150, 6, 60)
	h := hybridFor(t, rs, WithForcedBackend("adaptsearch"))
	o := difftest.NewOracle(rs)
	const queries = 640
	for i := 0; i < queries; i++ {
		q := difftest.RandomRanking(rng, 6, 60)
		got, err := h.NearestNeighbors(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.NearestNeighbors(q, 4); !difftest.Equal(got, want) {
			t.Fatalf("fallback KNN diverged:\n got %v\nwant %v", got, want)
		}
	}
	if h.DistanceCalls() == 0 {
		t.Fatal("forced adaptsearch KNN evaluated no distances: the reduction did not run")
	}
	if st := h.PlanStats(); st[hybridInverted].Plans != 0 || st[hybridAdaptSearch].Plans != queries {
		t.Errorf("plans under Force(adaptsearch) = %+v, want %d on adaptsearch only", st, queries)
	}
}

// TestKNNNativeConcurrent runs 16 goroutines of KNN queries against each
// subject while another goroutine inserts, deletes and updates; run under
// -race. Every answer must be well-formed, and once the writer is done the
// index must again match the oracle exactly.
func TestKNNNativeConcurrent(t *testing.T) {
	const k, domain = 6, 40
	rs := difftest.RandomCollection(rand.New(rand.NewSource(11)), 300, k, domain)
	for name, idx := range knnSubjects(t, rs) {
		o := difftest.NewOracle(rs)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := idx.NearestNeighbors(difftest.RandomRanking(rng, k, domain), 1+rng.Intn(20))
					if err == nil {
						err = wellFormedKNN(res)
					}
					if err != nil {
						t.Errorf("%s: concurrent KNN: %v", name, err)
						return
					}
				}
			}(g)
		}
		difftest.Mutate(t, name, idx, o, rand.New(rand.NewSource(13)), 400, domain)
		close(stop)
		wg.Wait()
		rng := rand.New(rand.NewSource(17))
		checkKNN(t, name, idx, o, mixedQueries(rng, o, 10, domain), []int{1, 8, 50})
	}
}

// wellFormedKNN checks the order and uniqueness every KNN answer has.
func wellFormedKNN(res []Result) error {
	seen := make(map[ID]bool, len(res))
	for i, r := range res {
		if seen[r.ID] {
			return fmt.Errorf("id %d returned twice in %v", r.ID, res)
		}
		seen[r.ID] = true
		if i > 0 && (res[i-1].Dist > r.Dist || (res[i-1].Dist == r.Dist && res[i-1].ID > r.ID)) {
			return fmt.Errorf("answer out of (distance, id) order: %v", res)
		}
	}
	return nil
}
