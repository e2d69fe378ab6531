package topk

import (
	"cmp"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"topk/internal/dataset"
	"topk/internal/difftest"
)

var errMismatch = errors.New("concurrent search diverged from oracle")

// hybridFor builds a hybrid index over the collection, failing the test on
// error.
func hybridFor(t *testing.T, rs []Ranking, opts ...HybridOption) *HybridIndex {
	t.Helper()
	h, err := NewHybridIndex(rs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkPlansOn runs f and asserts that it moved the plan counter of the named
// backend and of no other.
func checkPlansOn(t *testing.T, h *HybridIndex, name string, f func()) {
	t.Helper()
	before := h.PlanStats()
	f()
	for i, st := range h.PlanStats() {
		if d := st.Plans - before[i].Plans; (st.Backend == name) != (d > 0) {
			t.Fatalf("%d new plans on %s while serving from %s", d, st.Backend, name)
		}
	}
}

// TestHybridDifferential checks the acceptance contract of the engine: on
// random workloads the hybrid's range results are byte-identical to the
// linear-scan oracle and to the standalone InvertedIndex — under the default
// route and under each forced backend, every plan landing where it should.
func TestHybridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := difftest.RandomCollection(rng, 600, 10, 300)
	o := difftest.NewOracle(rs)
	h := hybridFor(t, rs, WithHybridCalibration(16)) // accepted, ignored

	queries := make([]Ranking, 25)
	for i := range queries {
		queries[i] = difftest.RandomRanking(rng, 10, 300)
	}
	inv, err := NewInvertedIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	checkPlansOn(t, h, "inverted", func() {
		difftest.CheckSearch(t, "hybrid(routed)", h, o, rng, 40, 300)
		difftest.CheckMatch(t, "hybrid(routed) vs InvertedIndex", h, inv, queries, difftest.Thetas)
	})
	for _, name := range HybridBackends {
		if err := h.Force(name); err != nil {
			t.Fatal(err)
		}
		checkPlansOn(t, h, name, func() {
			difftest.CheckSearch(t, "hybrid(forced="+name+")", h, o, rng, 15, 300)
			difftest.CheckMatch(t, "hybrid(forced="+name+") vs InvertedIndex", h, inv, queries, difftest.Thetas)
		})
	}
	if err := h.Force(""); err != nil {
		t.Fatal(err)
	}
	if err := h.Force("no-such-backend"); err == nil {
		t.Fatal("Force accepted an unknown backend")
	}

	// θ = 1: the raw threshold is clamped to dmax−1, so both backends must
	// return the same answer — the ball posting lists can see — whichever
	// one is forced.
	for _, q := range queries[:8] {
		var base []Result
		for i, name := range HybridBackends {
			if err := h.Force(name); err != nil {
				t.Fatal(err)
			}
			res, err := h.Search(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = res
				continue
			}
			if !difftest.Equal(res, base) {
				t.Fatalf("θ=1 answers diverge: %s returned %d results, %s returned %d",
					name, len(res), HybridBackends[0], len(base))
			}
		}
	}
	if err := h.Force(""); err != nil {
		t.Fatal(err)
	}
}

// bruteNNSlots is the KNN oracle over a slot array: live slots ranked by
// (distance, id).
func bruteNNSlots(slots []Ranking, q Ranking, n int) []Result {
	var all []Result
	for id, r := range slots {
		if r == nil {
			continue
		}
		all = append(all, Result{ID: ID(id), Dist: Distance(q, r)})
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

// TestHybridKNN checks NearestNeighbors byte-identically against the brute
// oracle, routed and per forced backend (covering the inverted backend's
// native posting-list KNN and the expanding-radius reduction over
// adaptsearch).
func TestHybridKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rs := difftest.RandomCollection(rng, 300, 8, 200)
	h := hybridFor(t, rs)
	modes := append([]string{""}, HybridBackends...)
	for _, name := range modes {
		if err := h.Force(name); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			q := difftest.RandomRanking(rng, 8, 200)
			for _, n := range []int{1, 3, 10, 500} {
				got, err := h.NearestNeighbors(q, n)
				if err != nil {
					t.Fatalf("forced=%q: %v", name, err)
				}
				want := bruteNNSlots(rs, q, n)
				if !difftest.Equal(got, want) {
					t.Fatalf("forced=%q n=%d:\n got %v\nwant %v", name, n, got, want)
				}
			}
		}
	}
}

// TestHybridFromSlots builds the hybrid from a tombstoned slot array and
// checks searches, KNN and the Slots round-trip preserve external ids.
func TestHybridFromSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rs := difftest.RandomCollection(rng, 400, 10, 250)
	o := difftest.NewOracle(rs)
	// Retire a third of the ids.
	for _, id := range o.LiveIDs() {
		if rng.Intn(3) == 0 && o.Len() > 1 {
			if err := o.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	slots := o.Slots()
	h, err := NewHybridIndexFromSlots(slots)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != o.Len() {
		t.Fatalf("Len=%d, oracle %d", h.Len(), o.Len())
	}
	difftest.CheckSearch(t, "hybrid(slots)", h, o, rng, 30, 250)
	for trial := 0; trial < 10; trial++ {
		q := difftest.RandomRanking(rng, 10, 250)
		got, err := h.NearestNeighbors(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNNSlots(slots, q, 7); !difftest.Equal(got, want) {
			t.Fatalf("knn over slots:\n got %v\nwant %v", got, want)
		}
	}

	// Slots round-trip: rebuild from the snapshot view, ids preserved.
	h2, err := NewHybridIndexFromSlots(h.Slots())
	if err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "hybrid(slots round-trip)", h2, o, rng, 15, 250)

	// An all-tombstone slot array is legal (a fully churned shard): k is 0
	// until the first insert defines it, searches answer empty, and the
	// snapshot round-trip preserves the retired ids.
	empty, err := NewHybridIndexFromSlots(make([]Ranking, 5))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.K() != 0 {
		t.Fatalf("all-tombstone hybrid: Len=%d K=%d", empty.Len(), empty.K())
	}
	if res, err := empty.Search(difftest.RandomRanking(rng, 10, 250), 0.3); err != nil || len(res) != 0 {
		t.Fatalf("all-tombstone search: %v, %v", res, err)
	}
	id, err := empty.Insert(difftest.RandomRanking(rng, 10, 250))
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 || empty.K() != 10 || empty.Len() != 1 {
		t.Fatalf("first insert on all-tombstone hybrid: id=%d K=%d Len=%d", id, empty.K(), empty.Len())
	}
	if err := empty.Compact(); err != nil {
		t.Fatal(err)
	}
	if res, err := empty.Search(empty.Slots()[5], 0); err != nil || len(res) != 1 || res[0].ID != 5 {
		t.Fatalf("post-fold search on revived shard: %v, %v", res, err)
	}

	// A completely empty collection is still rejected.
	if _, err := NewHybridIndex(nil); err == nil {
		t.Fatal("empty collection accepted")
	}
}

// TestHybridRoutesToInverted pins the routing constant: a θ sweep across and
// past the paper's query range plus KNN puts every plan on inverted, and the
// counters sum to the queries answered; Force("adaptsearch") moves all of them
// there and Force("") back. (That the forced sidecar stays oracle-exact through
// mutations and a fold is TestHybridMutableDifferential's.)
func TestHybridRoutesToInverted(t *testing.T) {
	rs, err := dataset.Generate(dataset.NYTLike(1500, 10))
	if err != nil {
		t.Fatal(err)
	}
	h := hybridFor(t, rs)
	qs, err := dataset.Workload(rs, dataset.NYTLike(1500, 10), 30, 0.8, 99)
	if err != nil {
		t.Fatal(err)
	}
	thetas := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5}
	sweep := func() {
		for _, q := range qs {
			for _, theta := range thetas {
				if _, err := h.Search(q, theta); err != nil {
					t.Fatalf("θ=%.2f: %v", theta, err)
				}
			}
			if _, err := h.NearestNeighbors(q, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	perSweep := uint64(len(qs) * (len(thetas) + 1))
	for _, force := range []string{"", "adaptsearch", ""} {
		if err := h.Force(force); err != nil {
			t.Fatal(err)
		}
		before := h.PlanStats()
		sweep()
		for i, st := range h.PlanStats() {
			want := uint64(0)
			if st.Backend == cmp.Or(force, "inverted") {
				want = perSweep
			}
			if got := st.Plans - before[i].Plans; got != want {
				t.Fatalf("Force(%q): %d new plans on %s, want %d", force, got, st.Backend, want)
			}
		}
	}
}

// TestHybridRejectedQueryIsNoPlan: a query the backend rejects was answered by
// nobody, so it moves no plan counter.
func TestHybridRejectedQueryIsNoPlan(t *testing.T) {
	rs := difftest.RandomCollection(rand.New(rand.NewSource(5)), 100, 8, 120)
	h := hybridFor(t, rs)
	short, repeated := rs[0][:7], append(Ranking{rs[0][1]}, rs[0][1:]...)
	for _, force := range []string{"", "adaptsearch"} {
		if err := h.Force(force); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Search(short, 0.1); err == nil {
			t.Fatal("wrong-size Search accepted")
		}
		if _, err := h.Search(repeated, 0.1); err == nil {
			t.Fatal("repeated-item Search accepted")
		}
		if _, err := h.NearestNeighbors(short, 3); err == nil {
			t.Fatal("wrong-size NearestNeighbors accepted")
		}
	}
	for _, st := range h.PlanStats() {
		if st.Plans != 0 {
			t.Fatalf("rejected queries counted as plans: %+v", h.PlanStats())
		}
	}
}

// TestHybridSubsetAndOptions covers forcing a backend and its validation:
// a pinned adaptsearch answers oracle-exactly and takes every plan, and a
// name outside HybridBackends is rejected. (The name predates the fixed
// backend set; see TestHybridBackendSet for what replaced subsetting.)
func TestHybridSubsetAndOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rs := difftest.RandomCollection(rng, 200, 8, 150)
	o := difftest.NewOracle(rs)

	h := hybridFor(t, rs)
	if err := h.Force("adaptsearch"); err != nil {
		t.Fatal(err)
	}
	difftest.CheckSearch(t, "hybrid(forced)", h, o, rng, 15, 150)
	st := h.PlanStats()
	if st[0].Plans != 0 || st[1].Plans == 0 {
		t.Fatalf("forced routing not reflected in plan stats: %+v", st)
	}

	for _, name := range []string{"warp-drive", "coarse"} {
		if err := h.Force(name); err == nil {
			t.Fatalf("Force(%q) accepted", name)
		}
	}
}

// TestHybridBackendSet pins the serving set: every hybrid — built over a
// collection or over zero live rankings — reports exactly the two
// HybridBackends, and the structures that left the hybrid are unknown names
// to Force, which leaves the route where it was.
func TestHybridBackendSet(t *testing.T) {
	rs := difftest.RandomCollection(rand.New(rand.NewSource(31)), 100, 8, 120)
	want := []string{"inverted", "adaptsearch"}
	h := hybridFor(t, rs)
	empty, err := NewHybridIndexFromSlots(make([]Ranking, 3))
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]*HybridIndex{"built": h, "zero-live": empty} {
		if got := idx.PlanStats(); len(got) != 2 || got[0].Backend != want[0] || got[1].Backend != want[1] {
			t.Fatalf("%s: PlanStats = %+v", name, got)
		}
	}
	if !reflect.DeepEqual(HybridBackends, want) {
		t.Fatalf("HybridBackends = %v, want %v", HybridBackends, want)
	}
	unknown := h.Force("no-such-backend")
	if unknown == nil {
		t.Fatal("Force accepted an unknown backend")
	}
	for _, gone := range []string{"blocked", "coarse", "bktree"} {
		// Force's unknown-backend error, the name substituted.
		wantErr := strings.Replace(unknown.Error(), "no-such-backend", gone, 1)
		if err := h.Force(gone); err == nil || err.Error() != wantErr {
			t.Fatalf("Force(%q) = %v, want %q", gone, err, wantErr)
		}
	}
	checkPlansOn(t, h, "inverted", func() {
		if _, err := h.Search(rs[0], 0.2); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHybridConcurrent hammers one hybrid index from many goroutines,
// mixing routed searches and KNN — run with -race.
func TestHybridConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rs := difftest.RandomCollection(rng, 300, 8, 200)
	o := difftest.NewOracle(rs)
	h := hybridFor(t, rs)
	const goroutines = 8
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := difftest.RandomRanking(rng, 8, 200)
				theta := difftest.Thetas[rng.Intn(len(difftest.Thetas))]
				got, err := h.Search(q, theta)
				if err != nil {
					done <- err
					return
				}
				want, _ := o.Search(q, theta)
				if !difftest.Equal(got, want) {
					done <- errMismatch
					return
				}
				if i%10 == 0 {
					if _, err := h.NearestNeighbors(q, 3); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
