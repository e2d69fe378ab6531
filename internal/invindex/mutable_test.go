package invindex

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"topk/internal/difftest"
	"topk/internal/ranking"
)

// TestMutableUpdateUnordersIDMap pins the premise of the root package's
// TestKNNNativeTieDecidedByExternalID: after an Update the ranking under
// external id 1 lives in the last internal slot, so the id map is out of
// order, and KNN still keeps id 1 — not id 2, which ties with it — at the cut.
func TestMutableUpdateUnordersIDMap(t *testing.T) {
	q := ranking.Ranking{1, 2, 3, 4}
	tied := ranking.Ranking{2, 1, 3, 4} // distance 2 from q
	m, err := NewMutable([]ranking.Ranking{q.Clone(), {1, 2, 4, 3}, tied.Clone(), {50, 51, 52, 53}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(1, tied); err != nil {
		t.Fatal(err)
	}
	if m.ids.inOrder {
		t.Fatal("update left the id map monotonic: the tie case is not exercised")
	}
	got, err := m.NearestNeighbors(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []ranking.Result{{ID: 0, Dist: 0}, {ID: 1, Dist: 2}}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestMutableQueryContractAfterEmptyingCompaction: once every ranking has
// been deleted and compacted away the index holds none, but it keeps its
// ranking size, and both query paths still reject a query of another size
// or with a repeated item.
func TestMutableQueryContractAfterEmptyingCompaction(t *testing.T) {
	m, err := NewMutable([]ranking.Ranking{{1, 2, 3}, {4, 5, 6}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := range ranking.ID(2) {
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 || m.K() != 3 {
		t.Fatalf("after compaction Len %d, K %d; want 0 and 3", m.Len(), m.K())
	}
	for _, q := range []ranking.Ranking{{1, 2}, {1, 1, 2}} {
		if res, err := m.Search(q, 0.5); err == nil {
			t.Errorf("Search(%v) = %v, nil; want an error", q, res)
		}
		if res, err := m.NearestNeighbors(q, 1); err == nil {
			t.Errorf("NearestNeighbors(%v) = %v, nil; want an error", q, res)
		}
	}
	if _, err := m.Search(ranking.Ranking{1, 2}, 0.5); !errors.Is(err, ranking.ErrSizeMismatch) {
		t.Errorf("Search of size 2 on k=3: %v, want ErrSizeMismatch", err)
	}
	if res, err := m.Search(ranking.Ranking{1, 2, 3}, 0.5); err != nil || len(res) != 0 {
		t.Errorf("Search of a valid query: %v, %v; want no results", res, err)
	}
}

// TestNewMutableInParallel restores a slot array large enough for several
// workers: the id map and the store hold every live slot under its external
// id and the tombstones as retired, and of two bad slots in different
// workers' ranges the error names the first.
func TestNewMutableInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	slots := difftest.RandomCollection(rand.New(rand.NewSource(9)), 3*minChunk, 6, 400)
	for i := range slots {
		if i%7 == 3 {
			slots[i] = nil
		}
	}
	m, err := NewMutable(slots, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Slots(); !slices.EqualFunc(got, slots, slices.Equal) {
		t.Fatal("the restored slot view differs from the slots")
	}
	for _, ext := range []int{0, minChunk + 5, len(slots) - 1} {
		res, err := m.Search(slots[ext], 0)
		if err != nil || !slices.ContainsFunc(res, func(r ranking.Result) bool { return int(r.ID) == ext }) {
			t.Fatalf("slot %d not found under its id: %v %v", ext, res, err)
		}
	}
	if err := m.Update(ranking.ID(3), slots[0]); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("update of a tombstoned slot: %v, want ErrUnknownID", err)
	}

	bad := slices.Clone(slots)
	bad[2*minChunk+1] = ranking.Ranking{1, 1, 2, 3, 4, 5}
	bad[minChunk+1] = ranking.Ranking{1, 2, 3}
	if _, err := NewMutable(bad, 0, 0); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("slot %d:", minChunk+1)) {
		t.Fatalf("two bad slots: %v, want the error of slot %d", err, minChunk+1)
	}
}

// TestMutableDeclaredK: a Mutable built with a declared k holds every
// ranking it takes in to it while it is empty — a query, an insert, an
// update of an unknown id (checked before the lookup, so it is
// ErrSizeMismatch, not ErrUnknownID) — keeps it across a compaction that
// empties it, and refuses a live slot that contradicts it, naming the slot.
func TestMutableDeclaredK(t *testing.T) {
	m, err := NewMutable(nil, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	short := ranking.Ranking{1, 2, 3}
	expectRejected := func(when string) {
		t.Helper()
		if m.K() != 4 {
			t.Fatalf("%s: K() = %d, want 4", when, m.K())
		}
		if _, err := m.Search(short, 0.5); !errors.Is(err, ranking.ErrSizeMismatch) {
			t.Errorf("%s: Search of size 3: %v, want ErrSizeMismatch", when, err)
		}
		if _, err := m.NearestNeighbors(short, 1); !errors.Is(err, ranking.ErrSizeMismatch) {
			t.Errorf("%s: NearestNeighbors of size 3: %v, want ErrSizeMismatch", when, err)
		}
		if _, err := m.Insert(short); !errors.Is(err, ranking.ErrSizeMismatch) {
			t.Errorf("%s: Insert of size 3: %v, want ErrSizeMismatch", when, err)
		}
		if err := m.Update(7, short); !errors.Is(err, ranking.ErrSizeMismatch) {
			t.Errorf("%s: Update of an unknown id with size 3: %v, want ErrSizeMismatch", when, err)
		}
		if res, err := m.Search(ranking.Ranking{1, 2, 3, 4}, 0.5); err != nil || len(res) != 0 {
			t.Errorf("%s: Search of a valid query: %v, %v; want no results", when, res, err)
		}
	}
	expectRejected("built empty")
	if m.Len() != 0 {
		t.Fatalf("rejected inserts changed Len to %d", m.Len())
	}
	id, err := m.Insert(ranking.Ranking{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	expectRejected("after an emptying compaction")

	_, err = NewMutable([]ranking.Ranking{nil, {1, 2, 3, 4}, {1, 2, 3}}, 4, 0)
	if !errors.Is(err, ranking.ErrSizeMismatch) || !strings.Contains(err.Error(), "slot 2:") {
		t.Errorf("a slot of size 3 under a declared k of 4: %v, want ErrSizeMismatch naming slot 2", err)
	}
	if _, err := NewMutable([]ranking.Ranking{{1, 2, 3}}, 4, 0); !errors.Is(err, ranking.ErrSizeMismatch) || !strings.Contains(err.Error(), "slot 0:") {
		t.Errorf("a first slot of size 3 under a declared k of 4: %v, want ErrSizeMismatch naming slot 0", err)
	}
}
