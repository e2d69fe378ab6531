package kernel

import (
	"math/rand"
	"testing"

	"topk/internal/ranking"
)

// TestBorrowedStoreMatchesOwned: every batched entry point must return
// identical distances whether the store owns its arena or borrows views
// (the mmap'd-snapshot case, where flat is nil and kernels iterate views).
func TestBorrowedStoreMatchesOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(40)
		universe := k + rng.Intn(3*k+10)
		n := 1 + rng.Intn(200)
		rs := make([]ranking.Ranking, n)
		ids := make([]ranking.ID, n)
		for i := range rs {
			rs[i] = randRanking(rng, k, universe)
			ids[i] = ranking.ID(i)
		}
		q := randRanking(rng, k, universe)

		owned := NewStore(rs)
		borrowed := NewStoreFromViews(k, rs)
		if borrowed.Borrowed() == false || owned.Borrowed() {
			t.Fatal("Borrowed() does not distinguish the two constructors")
		}
		if borrowed.Flat() != nil {
			t.Fatal("borrowed store exposes a flat arena")
		}
		want := FootruleMany(q, owned, ids, nil)
		got := FootruleMany(q, borrowed, ids, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: id %d: owned=%d borrowed=%d", trial, i, want[i], got[i])
			}
		}
	}
	// Appending to a borrowed view must copy out, not write past the slot
	// into foreign memory — same contract as owned arenas.
	backing := []ranking.Item{1, 2, 3, 4, 5, 6}
	st := NewStoreFromViews(3, []ranking.Ranking{backing[:3], backing[3:]})
	_ = append(st.Slot(0), 99)
	if backing[3] != 4 {
		t.Fatalf("append through a view clobbered backing memory: %v", backing)
	}
}

func TestBorrowedStoreMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStoreFromViews accepted a mismatched view length")
		}
	}()
	NewStoreFromViews(3, []ranking.Ranking{{1, 2, 3}, {1, 2}})
}
