package topk

import "testing"

func TestInvertedIndexInsert(t *testing.T) {
	rs := testCollection(t, 400)
	grow := testCollection(t, 500)[400:] // extra rankings from the same family
	idx, err := NewInvertedIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]Ranking{}, rs...)
	for _, r := range grow {
		id, err := idx.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != len(all) {
			t.Fatalf("insert id %d, want %d", id, len(all))
		}
		all = append(all, r)
	}
	if idx.Len() != len(all) {
		t.Fatalf("Len=%d want %d", idx.Len(), len(all))
	}
	checkIndexAgainstBrute(t, idx, all, "InvertedIndex+Insert")
	// Errors.
	if _, err := idx.Insert(Ranking{1, 2}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := idx.Insert(Ranking{1, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err == nil {
		t.Fatal("duplicate items accepted")
	}
}
