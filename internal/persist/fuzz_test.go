package persist

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"topk/internal/ranking"
)

// snapshotSeed builds a valid v2 snapshot to seed the corpus: 3 slots, the
// middle one tombstoned.
func snapshotSeed() []byte {
	var buf bytes.Buffer
	slots := []ranking.Ranking{{1, 2, 3}, nil, {3, 2, 1}}
	if _, err := WriteCollection(&buf, slots); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func rankingsSeed() []byte {
	var buf bytes.Buffer
	if _, err := WriteRankings(&buf, []ranking.Ranking{{1, 2}, {2, 1}}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// pagedSeed builds a valid v3 paged snapshot with a tombstone hole.
func pagedSeed() []byte {
	var buf bytes.Buffer
	if _, err := WritePagedTo(&buf, []ranking.Ranking{{1, 2, 3}, nil, {3, 2, 1}}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSnapshot feeds arbitrary (corrupted, truncated, hostile) bytes to
// every persist reader: they must never panic, never allocate absurdly, and
// anything they do accept must round-trip byte-identically through the
// corresponding writer.
func FuzzSnapshot(f *testing.F) {
	f.Add(snapshotSeed())
	f.Add(rankingsSeed())
	f.Add([]byte{})
	f.Add([]byte("TKRK"))
	// Truncations and single-byte corruptions of valid artifacts.
	seed := snapshotSeed()
	f.Add(seed[:len(seed)-1])
	flip := append([]byte(nil), seed...)
	flip[9] ^= 0xff
	f.Add(flip)
	// A v2 header claiming 2^32-1 slots: must fail without a huge alloc.
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint32(huge[0:], 0x544b524b)
	binary.LittleEndian.PutUint32(huge[4:], 2)
	binary.LittleEndian.PutUint32(huge[8:], 0xffffffff)
	binary.LittleEndian.PutUint32(huge[12:], 10)
	f.Add(huge)
	// Paged v3 seeds: valid, truncated, and bit-flipped inside a page.
	pseed := pagedSeed()
	f.Add(pseed)
	f.Add(pseed[:len(pseed)-1])
	pflip := append([]byte(nil), pseed...)
	pflip[pagedHeaderSize+1] ^= 0xff
	f.Add(pflip)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Readers must not panic on any input.
		if slots, err := ReadCollection(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if _, err := WriteCollection(&buf, slots); err != nil {
				t.Fatalf("accepted slots failed to re-serialize: %v", err)
			}
			back, err := ReadCollection(&buf)
			if err != nil {
				t.Fatalf("rewritten snapshot rejected: %v", err)
			}
			if len(back) != len(slots) {
				t.Fatalf("round-trip changed slot count: %d -> %d", len(slots), len(back))
			}
			for i := range slots {
				if (slots[i] == nil) != (back[i] == nil) || !slots[i].Equal(back[i]) {
					t.Fatalf("round-trip changed slot %d: %v -> %v", i, slots[i], back[i])
				}
			}
		}
		if rs, err := ReadRankings(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if _, err := WriteRankings(&buf, rs); err != nil {
				t.Fatalf("accepted rankings failed to re-serialize: %v", err)
			}
			back, err := ReadRankings(&buf)
			if err != nil || !reflect.DeepEqual(justRankings(back), justRankings(rs)) {
				t.Fatalf("rankings round-trip diverged: %v / %v", err, back)
			}
		}
		// Paged v3: anything accepted must round-trip slot-identically
		// through the paged writer; checkpoint footers must never panic.
		if pc, err := ReadPagedAll(data); err == nil {
			var buf bytes.Buffer
			if _, err := WritePagedTo(&buf, pc.Slots()); err != nil {
				t.Fatalf("accepted paged slots failed to re-serialize: %v", err)
			}
			back, err := ReadPagedAll(buf.Bytes())
			if err != nil {
				t.Fatalf("rewritten paged snapshot rejected: %v", err)
			}
			if len(back.Slots()) != len(pc.Slots()) {
				t.Fatalf("paged round-trip changed slot count: %d -> %d", len(pc.Slots()), len(back.Slots()))
			}
			for i := range pc.Slots() {
				a, b := pc.Slots()[i], back.Slots()[i]
				if (a == nil) != (b == nil) || !a.Equal(b) {
					t.Fatalf("paged round-trip changed slot %d: %v -> %v", i, a, b)
				}
			}
		}
		_, _ = decodeFooter(data)
	})
}

// justRankings normalizes empty-vs-nil slices for DeepEqual.
func justRankings(rs []ranking.Ranking) []ranking.Ranking {
	if len(rs) == 0 {
		return nil
	}
	return rs
}
