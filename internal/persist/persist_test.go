package persist

import (
	"bytes"
	"math/rand"
	"testing"

	"topk/internal/ranking"
)

func randomCollection(seed int64, n, k, v int) []ranking.Ranking {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]ranking.Ranking, n)
	for i := range rs {
		r := make(ranking.Ranking, 0, k)
		seen := make(map[ranking.Item]struct{}, k)
		for len(r) < k {
			it := ranking.Item(rng.Intn(v))
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			r = append(r, it)
		}
		rs[i] = r
	}
	return rs
}

func TestRankingsRoundtrip(t *testing.T) {
	for _, rs := range [][]ranking.Ranking{
		nil,
		{},
		{{1, 2, 3}},
		randomCollection(1, 500, 10, 100),
	} {
		var buf bytes.Buffer
		n, err := WriteRankings(&buf, rs)
		if err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != n {
			t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadRankings(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rs) {
			t.Fatalf("roundtrip count %d, want %d", len(got), len(rs))
		}
		for i := range rs {
			if !got[i].Equal(rs[i]) {
				t.Fatalf("ranking %d mismatch", i)
			}
		}
	}
}

func TestRankingsRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteRankings(&buf, randomCollection(2, 10, 5, 50)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Wrong magic.
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if _, err := ReadRankings(bytes.NewReader(bad)); err == nil {
		t.Error("wrong magic accepted")
	}
	// Truncation.
	if _, err := ReadRankings(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated input accepted")
	}
	// Wrong version.
	bad = append([]byte{}, data...)
	bad[4] = 99
	if _, err := ReadRankings(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version accepted")
	}
	// Empty input.
	if _, err := ReadRankings(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestWriteRankingsMixedSizesRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteRankings(&buf, []ranking.Ranking{{1, 2}, {1, 2, 3}}); err == nil {
		t.Error("mixed sizes accepted")
	}
}

// TestCollectionMidEpochRoundtrip pins the snapshot-v2 shape the hybrid
// engine's mutation overlay produces: a base region with tombstone holes
// followed by appended delta slots, ending in a trailing tombstone (a
// deleted fresh insert). The round-trip must preserve every slot — ids,
// holes and the id-space length — exactly.
func TestCollectionMidEpochRoundtrip(t *testing.T) {
	rs := randomCollection(71, 12, 6, 40)
	slots := make([]ranking.Ranking, 0, len(rs)+4)
	slots = append(slots, rs[:8]...)
	slots[2], slots[5] = nil, nil    // base tombstones
	slots = append(slots, rs[8:]...) // delta inserts
	slots = append(slots, nil, nil)  // deleted delta entries, trailing
	var buf bytes.Buffer
	if _, err := WriteCollection(&buf, slots); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(slots) {
		t.Fatalf("round-trip changed the id space: %d slots, want %d", len(got), len(slots))
	}
	for i := range slots {
		switch {
		case (slots[i] == nil) != (got[i] == nil):
			t.Fatalf("slot %d liveness diverged", i)
		case slots[i] != nil && !slots[i].Equal(got[i]):
			t.Fatalf("slot %d: got %v, want %v", i, got[i], slots[i])
		}
	}
}
