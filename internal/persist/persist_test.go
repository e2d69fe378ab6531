package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
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

// The v1/v2 writers are gone, so the legacy decoder is pinned against byte
// literals of what they wrote.
var (
	// goldenV1 is a dense v1 collection: 3 rankings of size 3.
	goldenV1 = []byte{
		'K', 'R', 'K', 'T', 1, 0, 0, 0, // magic "TKRK" (little-endian), version 1
		3, 0, 0, 0, 3, 0, 0, 0, // n=3, k=3
		1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, // [1 2 3]
		3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, // [3 2 1]
		0, 1, 0, 0, 7, 0, 0, 0, 9, 0, 0, 0, // [256 7 9]
	}
	goldenV1Slots = []ranking.Ranking{{1, 2, 3}, {3, 2, 1}, {256, 7, 9}}

	// goldenV2 is a slotted v2 snapshot: 5 slots of size 2 with a hole and
	// two trailing tombstones (a deleted fresh insert keeps its id retired).
	goldenV2 = []byte{
		'K', 'R', 'K', 'T', 2, 0, 0, 0, // version 2
		5, 0, 0, 0, 2, 0, 0, 0, // n=5, k=2
		1, 1, 0, 0, 0, 2, 0, 0, 0, // live [1 2]
		0,                         // tombstone
		1, 2, 0, 0, 0, 1, 0, 0, 0, // live [2 1]
		0, 0, // trailing tombstones
	}
	goldenV2Slots = []ranking.Ranking{{1, 2}, nil, {2, 1}, nil, nil}
)

// TestPagedBackCompat is the migration matrix: a v1 (dense rankings) and a
// v2 (slot collection) artifact decode through ReadLegacy to exactly the
// collection their v3 rewrite loads as — which is all
// `topkquery -load-snapshot old -save-snapshot new` does.
func TestPagedBackCompat(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden []byte
		want   []ranking.Ranking
	}{
		{"v1", goldenV1, goldenV1Slots},
		{"v2", goldenV2, goldenV2Slots},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slots, err := ReadLegacy(bytes.NewReader(tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			slotsEqual(t, tc.want, slots)
			var v3 bytes.Buffer
			if _, err := WritePagedTo(&v3, slots); err != nil {
				t.Fatal(err)
			}
			pc, err := ReadPagedAll(v3.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			slotsEqual(t, tc.want, pc.Slots())
			// The v3 readers name the legacy artifact instead of decoding it.
			if _, err := ReadPagedAll(tc.golden); !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("ReadPagedAll on a TKRK file: %v, want ErrLegacyFormat", err)
			}
		})
	}
}

// TestRankingsRejectsCorruption: every way a legacy artifact can be damaged
// is an error out of ReadLegacy — never a panic, never an allocation sized
// by a corrupted count.
func TestRankingsRejectsCorruption(t *testing.T) {
	mutate := func(src []byte, f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), src...))
	}
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"short header":   goldenV1[:11],
		"wrong magic":    mutate(goldenV1, func(b []byte) []byte { b[0] ^= 0xff; return b }),
		"wrong version":  mutate(goldenV1, func(b []byte) []byte { b[4] = 99; return b }),
		"v3 file":        pagedSeed(),
		"truncated v1":   goldenV1[:len(goldenV1)-3],
		"truncated v2":   goldenV2[:len(goldenV2)-1],
		"mid-ranking v2": goldenV2[:20],
		"bad flag":       mutate(goldenV2, func(b []byte) []byte { b[25] = 7; return b }),
		"implausible k":  mutate(goldenV2, func(b []byte) []byte { b[13] = 1; return b }),
		"duplicate item": mutate(goldenV1, func(b []byte) []byte { b[20] = 1; return b }),
		// Bit-flipped counts: the header claims ~2^31 slots over a few bytes.
		"flipped count v1": mutate(goldenV1, func(b []byte) []byte { b[11] ^= 0x80; return b }),
		"flipped count v2": mutate(goldenV2, func(b []byte) []byte { b[11] ^= 0x80; return b }),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		slots, err := ReadLegacy(bytes.NewReader(bad))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted as %v", name, slots)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: error %v does not wrap ErrBadFormat", name, err)
		}
		// boundedCap slice headers are 1.5 MiB; a count-sized one would be 48 GiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: allocated %d bytes decoding %d", name, grew, len(bad))
		}
	}
}

// TestCollectionMidEpochRoundtrip pins the slot shape the hybrid engine's
// mutation overlay produces: a base region with tombstone holes followed by
// appended delta slots, ending in a trailing tombstone (a deleted fresh
// insert). The round-trip must preserve every slot — ids, holes and the
// id-space length — exactly.
func TestCollectionMidEpochRoundtrip(t *testing.T) {
	rs := randomCollection(71, 12, 6, 40)
	slots := make([]ranking.Ranking, 0, len(rs)+4)
	slots = append(slots, rs[:8]...)
	slots[2], slots[5] = nil, nil    // base tombstones
	slots = append(slots, rs[8:]...) // delta inserts
	slots = append(slots, nil, nil)  // deleted delta entries, trailing
	var buf bytes.Buffer
	if _, err := WritePagedTo(&buf, slots); err != nil {
		t.Fatal(err)
	}
	pc, err := ReadPagedAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	slotsEqual(t, slots, pc.Slots())
}
