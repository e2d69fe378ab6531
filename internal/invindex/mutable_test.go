package invindex

import (
	"testing"

	"topk/internal/ranking"
)

// TestMutableUpdateUnordersIDMap pins the premise of the root package's
// TestKNNNativeTieDecidedByExternalID: after an Update the ranking under
// external id 1 lives in the last internal slot, so the id map is out of
// order, and KNN still keeps id 1 — not id 2, which ties with it — at the cut.
func TestMutableUpdateUnordersIDMap(t *testing.T) {
	q := ranking.Ranking{1, 2, 3, 4}
	tied := ranking.Ranking{2, 1, 3, 4} // distance 2 from q
	m, err := NewMutable([]ranking.Ranking{q.Clone(), {1, 2, 4, 3}, tied.Clone(), {50, 51, 52, 53}}, FilterValidateDrop, 0)
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
