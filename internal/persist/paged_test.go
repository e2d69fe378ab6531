package persist

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topk/internal/ranking"
)

// randomSlots builds a slot array with tombstone holes: n slots, k-length
// rankings (distinct items, as the ranking validator demands), roughly one
// in four slots nil — except slot 0, kept live so k is always defined.
func randomSlots(rng *rand.Rand, n, k int) []ranking.Ranking {
	slots := make([]ranking.Ranking, n)
	for i := range slots {
		if i > 0 && rng.Intn(4) == 0 {
			continue
		}
		slots[i] = randomRanking(rng, k)
	}
	return slots
}

// randomRanking draws k distinct items: a random high part with the rank in
// the low byte (k never exceeds 255).
func randomRanking(rng *rand.Rand, k int) ranking.Ranking {
	r := make(ranking.Ranking, k)
	for j := range r {
		r[j] = ranking.Item(rng.Intn(1<<16))<<8 | ranking.Item(j)
	}
	return r
}

func slotsEqual(t *testing.T, want, got []ranking.Ranking) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("slot count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if (want[i] == nil) != (got[i] == nil) {
			t.Fatalf("slot %d liveness diverged: want %v, got %v", i, want[i], got[i])
		}
		if want[i] != nil && !want[i].Equal(got[i]) {
			t.Fatalf("slot %d content diverged: want %v, got %v", i, want[i], got[i])
		}
	}
}

func TestPagedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {3, 10}, {100, 25}, {5000, 10},
	} {
		slots := randomSlots(rng, tc.n, tc.k)
		var buf bytes.Buffer
		n, err := WritePagedTo(&buf, slots)
		if err != nil {
			t.Fatalf("n=%d k=%d: write: %v", tc.n, tc.k, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
		}
		pc, err := ReadPagedAll(buf.Bytes())
		if err != nil {
			t.Fatalf("n=%d k=%d: read: %v", tc.n, tc.k, err)
		}
		slotsEqual(t, slots, pc.Slots())
		if pc.Layout().K != tc.k || pc.Layout().Slots != tc.n {
			t.Fatalf("layout %+v does not match n=%d k=%d", pc.Layout(), tc.n, tc.k)
		}
	}
}

func TestPagedFileBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	slots := randomSlots(rng, 3000, 10)
	path := filepath.Join(t.TempDir(), "snap.v3")
	if err := WritePagedFile(path, slots); err != nil {
		t.Fatal(err)
	}
	pc, err := OpenPagedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slotsEqual(t, slots, pc.Slots())
}

// TestPagedFileFailedWriteKeepsSnapshot: a write that fails its validation
// (rankings of two sizes) returns the error and leaves the snapshot already
// at the path loadable with its slots, and no temp file behind.
func TestPagedFileFailedWriteKeepsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	slots := randomSlots(rng, 500, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.v3")
	if err := WritePagedFile(path, slots); err != nil {
		t.Fatal(err)
	}
	if err := WritePagedFile(path, []ranking.Ranking{{1, 2, 3}, {4, 5}}); err == nil {
		t.Fatal("a mixed-size collection was written")
	}
	pc, err := OpenPagedFile(path)
	if err != nil {
		t.Fatalf("the earlier snapshot no longer loads: %v", err)
	}
	slotsEqual(t, slots, pc.Slots())
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries after the failed write, want 1", len(ents))
	}
}

// flipArenaByte XORs the high byte of slot's first item with 0x40 inside
// page: the ranking stays well-formed (distinct items, right length) but is
// no longer the one written, so only the page checksum can catch it.
func flipArenaByte(l Layout, slot int, page []byte) {
	_, off := l.arenaPos(slot)
	page[off+itemSize-1] ^= 0x40
}

// TestArenaBitRotIsCorrupt: a bit-flipped arena page — content that still
// decodes as a valid ranking — is ErrCorrupt naming the page on every load
// path, never a silently served ranking that was never written.
func TestArenaBitRotIsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	slots := randomSlots(rng, 3000, 10)
	l := Layout{PageSize: DefaultPageSize, K: 10, Slots: len(slots)}
	lp, _ := l.arenaPos(0) // slot 0 is always live
	want := fmt.Sprintf("page %d checksum mismatch", lp)

	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap.v3")
		if err := WritePagedFile(path, slots); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := pagedHeaderSize + lp*l.PageSize
		flipArenaByte(l, 0, data[off:off+l.PageSize])
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenPagedFile(path)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("got %v, want ErrCorrupt with %q", err, want)
		}
	})
	t.Run("dir", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := NewPager(dir, nil).WriteCheckpoint(1, slots); err != nil {
			t.Fatal(err)
		}
		ft, err := LoadFooter(FooterPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, DataFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := int(ft.PageMap[lp]) * l.PageSize
		flipArenaByte(l, 0, data[off:off+l.PageSize])
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// true is what benchmark/ still passes; the ignored flag must not
		// weaken verification.
		_, _, err = OpenPagedDir(dir, FooterPath(dir, 1), true)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("got %v, want ErrCorrupt with %q", err, want)
		}
	})
}

func TestPagedEmptyAndAllTombstones(t *testing.T) {
	for _, slots := range [][]ranking.Ranking{nil, {}, {nil, nil, nil}} {
		var buf bytes.Buffer
		if _, err := WritePagedTo(&buf, slots); err != nil {
			t.Fatalf("write %v: %v", slots, err)
		}
		pc, err := ReadPagedAll(buf.Bytes())
		if err != nil {
			t.Fatalf("read %v: %v", slots, err)
		}
		if len(pc.Slots()) != len(slots) {
			t.Fatalf("round-trip changed slot count: %d -> %d", len(slots), len(pc.Slots()))
		}
		for i, r := range pc.Slots() {
			if r != nil {
				t.Fatalf("slot %d came back live from an all-tombstone snapshot", i)
			}
		}
	}
}

func TestPagedMixedKRejected(t *testing.T) {
	var buf bytes.Buffer
	_, err := WritePagedTo(&buf, []ranking.Ranking{{1, 2, 3}, {1, 2}})
	if !errors.Is(err, ranking.ErrSizeMismatch) {
		t.Fatalf("mixed-k write: got %v, want ErrSizeMismatch", err)
	}
}

// TestPagedCorruption flips or truncates bytes across every region of a
// valid snapshot; each damaged image must be rejected with ErrCorrupt or
// ErrBadFormat, never accepted and never panic.
func TestPagedCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	slots := randomSlots(rng, 600, 10)
	var buf bytes.Buffer
	if _, err := WritePagedTo(&buf, slots); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadPagedAll(good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	l := Layout{PageSize: DefaultPageSize, K: 10, Slots: 600}
	regions := map[string]int{
		"magic":       0,
		"version":     4,
		"page-size":   8,
		"k":           12,
		"slot-count":  16,
		"page-count":  24,
		"header-size": 28,
		"flag-page":   pagedHeaderSize + 7,
		"arena-page":  pagedHeaderSize + l.FlagPages()*l.PageSize + 13,
		"crc-table":   len(good) - pagedTrailerLen - 2,
		"trailer":     len(good) - 3,
	}
	for name, off := range regions {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		pc, err := ReadPagedAll(bad)
		if err == nil {
			// A flag-page bit flip can only flip liveness 0<->1, which the CRC
			// must catch; anything accepted is a checksum hole.
			t.Fatalf("%s: corrupted image accepted (%d slots)", name, len(pc.Slots()))
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s: got %v, want ErrCorrupt or ErrBadFormat", name, err)
		}
	}
	for _, cut := range []int{1, pagedTrailerLen, l.PageSize, len(good) - pagedHeaderSize + 1} {
		if _, err := ReadPagedAll(good[:len(good)-cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated by %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestPagedHeaderBounds feeds headers whose counts describe absurd or
// impossible geometry; all must fail fast with ErrCorrupt before any
// count-sized allocation happens.
func TestPagedHeaderBounds(t *testing.T) {
	mk := func(mutate func(hdr []byte)) []byte {
		var buf bytes.Buffer
		if _, err := WritePagedTo(&buf, []ranking.Ranking{{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		mutate(b)
		// Re-stamp the header CRC so the geometry bounds themselves are what
		// rejects the image, not the checksum.
		putU32(b[32:], crc32Header(b))
		return b
	}
	cases := map[string][]byte{
		"huge-slot-count": mk(func(b []byte) { putU64(b[16:], 1<<50) }),
		"giant-pages":     mk(func(b []byte) { putU32(b[24:], 1<<30) }),
		"tiny-page-size":  mk(func(b []byte) { putU32(b[8:], 16) }),
		"huge-page-size":  mk(func(b []byte) { putU32(b[8:], 1<<30) }),
		"k-overflow":      mk(func(b []byte) { putU32(b[12:], 300) }),
		"short":           {0x33, 0x50, 0x4b, 0x54},
	}
	for name, img := range cases {
		if _, err := ReadPagedAll(img); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func putU64(b []byte, v uint64) { putU32(b, uint32(v)); putU32(b[4:], uint32(v>>32)) }

func crc32Header(b []byte) uint32 { return crc32.Checksum(b[:32], castagnoli) }

func TestPagedFileMissing(t *testing.T) {
	if _, err := OpenPagedFile(filepath.Join(t.TempDir(), "nope.v3")); !os.IsNotExist(err) {
		t.Fatalf("got %v, want not-exist", err)
	}
}

func TestPagedPageSizeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	slots := randomSlots(rng, 700, 10)
	for _, ps := range []int{minPageSize, 1 << 14, DefaultPageSize} {
		var buf bytes.Buffer
		if _, err := writePaged(&buf, slots, ps); err != nil {
			t.Fatalf("pageSize=%d: %v", ps, err)
		}
		pc, err := ReadPagedAll(buf.Bytes())
		if err != nil {
			t.Fatalf("pageSize=%d: %v", ps, err)
		}
		slotsEqual(t, slots, pc.Slots())
		if got := pc.Layout().PageSize; got != ps {
			t.Fatalf("layout page size %d, want %d", got, ps)
		}
	}
}

func BenchmarkPagedWrite(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	slots := randomSlots(rng, 10000, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := WritePagedTo(&buf, slots); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPagedReadAll(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	slots := randomSlots(rng, 10000, 10)
	var buf bytes.Buffer
	if _, err := WritePagedTo(&buf, slots); err != nil {
		b.Fatal(err)
	}
	img := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadPagedAll(img); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleWritePagedTo() {
	var buf bytes.Buffer
	slots := []ranking.Ranking{{1, 2, 3}, nil, {3, 2, 1}}
	if _, err := WritePagedTo(&buf, slots); err != nil {
		panic(err)
	}
	pc, err := ReadPagedAll(buf.Bytes())
	if err != nil {
		panic(err)
	}
	fmt.Println(len(pc.Slots()), pc.Slots()[1] == nil, pc.Slots()[2])
	// Output: 3 true [3, 2, 1]
}
