package persist

import (
	"bytes"
	"encoding/binary"
	"testing"

	"topk/internal/ranking"
)

// pagedSeed builds a valid v3 paged snapshot with a tombstone hole.
func pagedSeed() []byte {
	var buf bytes.Buffer
	if _, err := WritePagedTo(&buf, []ranking.Ranking{{1, 2, 3}, nil, {3, 2, 1}}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSnapshot feeds arbitrary (corrupted, truncated, hostile) bytes to
// every persist reader: none may panic or allocate absurdly, whatever the
// legacy decoder or the v3 reader accepts must round-trip slot-identically
// through the one writer, and the v3 reader must give the slots or the error
// the reference loader gives (see referenceLoad).
func FuzzSnapshot(f *testing.F) {
	f.Add(goldenV2)
	f.Add(goldenV1)
	f.Add([]byte{})
	f.Add([]byte("KRKT"))
	// Truncations and single-byte corruptions of valid artifacts.
	f.Add(goldenV2[:len(goldenV2)-1])
	flip := append([]byte(nil), goldenV2...)
	flip[9] ^= 0xff
	f.Add(flip)
	// A v2 header claiming 2^32-1 slots: must fail without a huge alloc.
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint32(huge[0:], legacyMagic)
	binary.LittleEndian.PutUint32(huge[4:], legacySlots)
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
	pflag := append([]byte(nil), pseed...)
	pflag[pagedHeaderSize+1] = 2
	reseal(pflag)
	f.Add(pflag)

	rewrite := func(t *testing.T, what string, slots []ranking.Ranking) {
		var buf bytes.Buffer
		if _, err := WritePagedTo(&buf, slots); err != nil {
			t.Fatalf("%s: accepted slots failed to re-serialize: %v", what, err)
		}
		back, err := ReadPagedAll(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: rewritten snapshot rejected: %v", what, err)
		}
		got := back.Slots()
		if len(got) != len(slots) {
			t.Fatalf("%s: round-trip changed slot count: %d -> %d", what, len(slots), len(got))
		}
		for i, a := range slots {
			if b := got[i]; (a == nil) != (b == nil) || !a.Equal(b) {
				t.Fatalf("%s: round-trip changed slot %d: %v -> %v", what, i, a, b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if slots, err := ReadLegacy(bytes.NewReader(data)); err == nil {
			rewrite(t, "legacy", slots)
		}
		pc, err := ReadPagedAll(data)
		if err == nil {
			rewrite(t, "paged", pc.Slots())
		}
		want, wantErr := referenceReadAll(data)
		sameLoad(t, "paged", pc, err, want, wantErr)
		_, _ = decodeFooter(data)
	})
}
