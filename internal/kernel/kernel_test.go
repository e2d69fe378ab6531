package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"topk/internal/ranking"
)

// randRanking draws k distinct items from [0, universe).
func randRanking(rng *rand.Rand, k, universe int) ranking.Ranking {
	r := make(ranking.Ranking, 0, k)
	seen := make(map[ranking.Item]bool, k)
	for len(r) < k {
		it := ranking.Item(rng.Intn(universe))
		if !seen[it] {
			seen[it] = true
			r = append(r, it)
		}
	}
	return r
}

// checkAll pins every kernel entry point against the reference oracle and
// against ranking.Footrule for one (q, tau) pair.
func checkAll(t *testing.T, kn *Kernel, q, tau ranking.Ranking) {
	t.Helper()
	want := Reference(q, tau)
	if got := ranking.Footrule(q, tau); got != want {
		t.Fatalf("ranking.Footrule=%d reference=%d (q=%v tau=%v)", got, want, q, tau)
	}
	kn.Compile(q)
	if got := kn.Distance(tau); got != want {
		t.Fatalf("kernel.Distance=%d reference=%d (side list %v, q=%v tau=%v)", got, want, kn.far, q, tau)
	}
	st := NewStore([]ranking.Ranking{tau})
	dists := kn.FootruleMany(st, []ranking.ID{0}, nil)
	if dists[0] != want {
		t.Fatalf("kernel.FootruleMany=%d reference=%d (q=%v tau=%v)", dists[0], want, q, tau)
	}
}

func TestKernelMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kn := New()
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(60)
		universe := k + rng.Intn(4*k+10)
		q := randRanking(rng, k, universe)
		tau := randRanking(rng, k, universe)
		checkAll(t, kn, q, tau)
	}
}

func TestKernelAdversarialPairs(t *testing.T) {
	kn := New()
	for _, k := range []int{1, 2, 3, 10, 25, 50, 255} {
		identical := make(ranking.Ranking, k)
		disjoint := make(ranking.Ranking, k)
		shifted := make(ranking.Ranking, k)
		reversed := make(ranking.Ranking, k)
		for i := 0; i < k; i++ {
			identical[i] = ranking.Item(i)
			disjoint[i] = ranking.Item(k + i)
			shifted[i] = ranking.Item((i + 1) % (k + 1)) // overlap k-1, every rank off by one
			reversed[k-1-i] = ranking.Item(i)
		}
		q := identical

		if kn.Compile(q); kn.Distance(identical) != 0 {
			t.Fatalf("k=%d: identical lists must be at distance 0, got %d", k, kn.Distance(identical))
		}
		if got, want := distOf(kn, q, disjoint), ranking.MaxDistance(k); got != want {
			t.Fatalf("k=%d: disjoint lists got %d want max %d", k, got, want)
		}
		for _, tau := range []ranking.Ranking{identical, disjoint, shifted, reversed} {
			checkAll(t, kn, q, tau)
			checkAll(t, kn, tau, q) // symmetry of the metric, asymmetry of compilation
		}
	}
}

func distOf(kn *Kernel, q, tau ranking.Ranking) int {
	kn.Compile(q)
	return kn.Distance(tau)
}

// TestKernelSparseFallback puts query items at and above MaxDenseItems on
// the side list and checks it against the oracle, including mixed pairs
// where only one side is huge.
func TestKernelSparseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kn := New()
	sideList := 0
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(30)
		q := make(ranking.Ranking, 0, k)
		tau := make(ranking.Ranking, 0, k)
		seenQ := map[ranking.Item]bool{}
		seenT := map[ranking.Item]bool{}
		for len(q) < k {
			it := ranking.Item(rng.Intn(2*k+4)) + MaxDenseItems - ranking.Item(rng.Intn(2)*(2*k+8))
			if !seenQ[it] {
				seenQ[it] = true
				q = append(q, it)
			}
		}
		for len(tau) < k {
			// Overlap q's universe half the time, small items otherwise.
			var it ranking.Item
			if rng.Intn(2) == 0 && len(q) > 0 {
				it = q[rng.Intn(len(q))] + ranking.Item(rng.Intn(3))
			} else {
				it = ranking.Item(rng.Intn(3 * k))
			}
			if !seenT[it] {
				seenT[it] = true
				tau = append(tau, it)
			}
		}
		checkAll(t, kn, q, tau)
		if len(kn.far) > 0 {
			sideList++
		}
	}
	if sideList == 0 {
		t.Fatal("the side list was never exercised")
	}
	if len(kn.tab) > MaxDenseItems {
		t.Fatalf("rank table grew to %d entries, past the %d cap", len(kn.tab), MaxDenseItems)
	}
}

// TestKernelGenerationReuse interleaves many queries through one kernel,
// small items with items on both sides of MaxDenseItems, so an entry query
// i left in the table would corrupt query i+1 if Compile did not clear it.
func TestKernelGenerationReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kn := New()
	const k = 20
	draw := func(base ranking.Item) ranking.Ranking {
		r := randRanking(rng, k, 100)
		for i := range r {
			r[i] += base
		}
		return r
	}
	bases := []ranking.Item{0, MaxDenseItems - 50}
	taus := make([]ranking.Ranking, 50)
	for i := range taus {
		taus[i] = draw(bases[i%2])
	}
	for trial := 0; trial < 500; trial++ {
		q := draw(bases[trial%3%2])
		kn.Compile(q)
		for _, tau := range taus {
			if got, want := kn.Distance(tau), Reference(q, tau); got != want {
				t.Fatalf("trial %d: got %d want %d", trial, got, want)
			}
		}
	}
}

// TestCompileRejectsLongQuery pins the uint8 rank bound: 255 items compile,
// 256 panic.
func TestCompileRejectsLongQuery(t *testing.T) {
	q := make(ranking.Ranking, 256)
	for i := range q {
		q[i] = ranking.Item(i)
	}
	kn := New()
	kn.Compile(q[:255])
	if got := kn.Distance(q[:255]); got != 0 {
		t.Fatalf("k=255 self-distance %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Compile accepted a 256-item query")
		}
	}()
	kn.Compile(q)
}

func TestFootruleManyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, k = 500, 25
	rs := make([]ranking.Ranking, n)
	for i := range rs {
		rs[i] = randRanking(rng, k, 4*n)
	}
	st := NewStore(rs)
	if st.Len() != n || st.K() != k {
		t.Fatalf("store shape %d/%d", st.Len(), st.K())
	}
	q := randRanking(rng, k, 4*n)
	ids := make([]ranking.ID, 0, n)
	for i := 0; i < n; i += 3 { // strided subset, out-of-order tail
		ids = append(ids, ranking.ID(i))
	}
	ids = append(ids, ranking.ID(n-1), ranking.ID(0))
	kn := New()
	kn.Compile(q)
	dists := kn.FootruleMany(st, ids, make([]int, 0, len(ids)))
	if len(dists) != len(ids) {
		t.Fatalf("got %d dists for %d ids", len(dists), len(ids))
	}
	for i, id := range ids {
		if want := Reference(q, rs[id]); dists[i] != want {
			t.Fatalf("id %d: got %d want %d", id, dists[i], want)
		}
	}
}

// TestStoreAppendOwnsSlots pins the arena contract: Append copies its
// argument, appending to a Slot view copies out instead of writing into the
// next slot, and a view taken before a reallocating Append still reads its
// ranking.
func TestStoreAppendOwnsSlots(t *testing.T) {
	st := NewStore(nil)
	r := ranking.Ranking{1, 2, 3}
	st.Append(r)
	r[0] = 7
	if got := st.Slot(0); !slices.Equal(got, ranking.Ranking{1, 2, 3}) {
		t.Fatalf("Append kept the caller's slice: slot 0 reads %v", got)
	}
	st.Append(ranking.Ranking{4, 5, 6})
	if st.Len() != 2 || st.K() != 3 {
		t.Fatalf("store shape %d/%d, want 2/3", st.Len(), st.K())
	}
	grown := append(st.Slot(0), 99)
	if got := st.Slot(1); !slices.Equal(got, ranking.Ranking{4, 5, 6}) {
		t.Fatalf("append into a view clobbered the next slot: %v", got)
	}
	if grown[3] != 99 || &grown[0] == &st.Flat()[0] {
		t.Fatal("append to a view did not copy out of the arena")
	}
	view, arena := st.Slot(1), &st.Flat()[0]
	for i := ranking.Item(0); &st.Flat()[0] == arena; i++ {
		st.Append(ranking.Ranking{10 + 3*i, 11 + 3*i, 12 + 3*i})
	}
	if !slices.Equal(view, ranking.Ranking{4, 5, 6}) || !slices.Equal(st.Slot(1), view) {
		t.Fatalf("view taken before the arena moved reads %v, slot 1 %v", view, st.Slot(1))
	}
}

func TestStoreMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStore accepted mismatched ranking lengths")
		}
	}()
	NewStore([]ranking.Ranking{{1, 2}, {3}})
}

func TestStoreEmpty(t *testing.T) {
	st := NewStore(nil)
	if st.Len() != 0 || st.K() != 0 || len(st.Flat()) != 0 {
		t.Fatal("empty store not empty")
	}
}
