package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"topk/internal/invindex"
	"topk/internal/ranking"
)

// referenceLoad is the loader the store loader replaced, kept as its
// reference: every page checksum first, in page order, then the slot array
// cut out of the flag pages in slot order, each live row decoded from its
// arena page. pageAt resolves a logical page to its bytes.
func referenceLoad(l Layout, pageAt func(p int) []byte, crc func(p int) uint32) ([]ranking.Ranking, error) {
	for p := 0; p < l.Pages(); p++ {
		if crc32.Checksum(pageAt(p), castagnoli) != crc(p) {
			return nil, fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, p)
		}
	}
	slots := make([]ranking.Ranking, l.Slots)
	for fp := 0; fp < l.FlagPages(); fp++ {
		pg := pageAt(fp)
		lo := fp * l.PageSize
		for s := lo; s < min(lo+l.PageSize, l.Slots); s++ {
			switch pg[s-lo] {
			case 0:
			case 1:
				if l.K == 0 {
					return nil, fmt.Errorf("%w: live slot %d in a k=0 snapshot", ErrCorrupt, s)
				}
				ap, off := l.arenaPos(s)
				r := make(ranking.Ranking, l.K)
				for j := range r {
					r[j] = binary.LittleEndian.Uint32(pageAt(ap)[off+j*itemSize:])
				}
				slots[s] = r
			default:
				return nil, fmt.Errorf("%w: slot %d has flag %d", ErrCorrupt, s, pg[s-lo])
			}
		}
	}
	return slots, nil
}

// referenceReadAll is ReadPagedAll over referenceLoad.
func referenceReadAll(data []byte) ([]ranking.Ranking, error) {
	l, err := parsePagedHeader(data[:min(len(data), pagedHeaderSize)], int64(len(data)))
	if err != nil {
		return nil, err
	}
	table, err := checkPagedFooter(data[len(data)-l.Pages()*4-pagedTrailerLen:], l)
	if err != nil {
		return nil, err
	}
	return referenceLoad(l,
		func(p int) []byte { return data[pagedHeaderSize+p*l.PageSize:][:l.PageSize] },
		func(p int) uint32 { return binary.LittleEndian.Uint32(table[p*4:]) })
}

// sameLoad fails unless the store loader's answer (pc, err) is the
// reference's: the same slots, or the same error.
func sameLoad(t *testing.T, what string, pc *PagedCollection, err error, want []ranking.Ranking, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: the loader says %v, the reference %v", what, err, wantErr)
	}
	if err == nil {
		slotsEqual(t, want, pc.Slots())
		if !slices.IsSorted(pc.IDs()) || len(pc.IDs()) != pc.Store().Len() {
			t.Fatalf("%s: %d ids (sorted: %v) for %d rows", what, len(pc.IDs()), slices.IsSorted(pc.IDs()), pc.Store().Len())
		}
	}
}

// reseal rewrites every page checksum of a single-file snapshot, and the
// table's own, so that only what the loader checks beyond them rejects it.
func reseal(data []byte) {
	l, err := parsePagedHeader(data[:pagedHeaderSize], int64(len(data)))
	if err != nil {
		panic(err)
	}
	table := data[len(data)-l.Pages()*4-pagedTrailerLen:][:l.Pages()*4]
	for p := range l.Pages() {
		binary.LittleEndian.PutUint32(table[p*4:], crc32.Checksum(data[pagedHeaderSize+p*l.PageSize:][:l.PageSize], castagnoli))
	}
	binary.LittleEndian.PutUint32(data[len(data)-pagedTrailerLen:], crc32.Checksum(table, castagnoli))
}

// TestLoaderMatchesReference holds the store loader to referenceLoad, on four
// workers over 4 KiB pages (several flag pages, dozens of arena pages): the
// same slots, or the same ErrCorrupt naming the same page or slot, for
// leading, trailing and all-dead tombstones, k = 0, a bit flip in a flag
// page, an arena page (or two, on one worker) or the footer, flag byte 2 (alone, and behind a
// rotted arena page, whose checksum error comes first), a live slot in a
// k=0 snapshot, and truncations. A row with a repeated item loads as
// written, and an index built over the store refuses it with the
// ErrDuplicateItem naming its slot that one built over the slots gives.
func TestLoaderMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(50))
	image := func(slots []ranking.Ranking) []byte {
		var buf bytes.Buffer
		if _, err := writePaged(&buf, slots, minPageSize); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	slots := randomSlots(rng, 9000, 10)
	l := Layout{PageSize: minPageSize, K: 10, Slots: len(slots)}
	arena := func(s int) int { p, off := l.arenaPos(s); return pagedHeaderSize + p*l.PageSize + off }
	leading, trailing := slices.Clone(slots), slices.Clone(slots)
	clear(leading[:5000])
	clear(trailing[4000:])
	cases := map[string][]byte{
		"live":               image(slots),
		"leading tombstones": image(leading),
		"trailing":           image(trailing),
		"all dead, k=0":      image(make([]ranking.Ranking, 9000)),
		"no slots":           image(nil),
	}
	mutate := func(name string, f func(b []byte)) {
		b := slices.Clone(cases["live"])
		f(b)
		cases[name] = b
	}
	mutate("flag page bit flip", func(b []byte) { b[pagedHeaderSize+l.PageSize+3] ^= 1 })
	mutate("arena page bit flip", func(b []byte) { b[arena(8000)] ^= 1 })
	mutate("two arena pages rotted", func(b []byte) { b[arena(8000)] ^= 1; b[arena(8500)] ^= 1 })
	mutate("footer bit flip", func(b []byte) { b[len(b)-pagedTrailerLen-5] ^= 1 })
	mutate("flag 2", func(b []byte) { b[pagedHeaderSize+6000] = 2; reseal(b) })
	mutate("flag 2 and arena rot", func(b []byte) { b[pagedHeaderSize+6000] = 2; reseal(b); b[arena(8000)] ^= 1 })
	cases["live in k=0"] = slices.Clone(cases["all dead, k=0"])
	cases["live in k=0"][pagedHeaderSize+7] = 1
	reseal(cases["live in k=0"])
	for _, cut := range []int{1, pagedTrailerLen + 1, l.PageSize} {
		cases[fmt.Sprintf("truncated by %d", cut)] = cases["live"][:len(cases["live"])-cut]
	}
	for name, data := range cases {
		want, wantErr := referenceReadAll(data)
		pc, err := ReadPagedAll(data)
		sameLoad(t, name, pc, err, want, wantErr)
		path := filepath.Join(t.TempDir(), "snap.v3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pc, err = OpenPagedFile(path)
		sameLoad(t, name+" (file)", pc, err, want, wantErr)
	}

	s := 7777 // a live slot: its second item repeats its first
	for slots[s] == nil {
		s++
	}
	dup := slices.Clone(cases["live"])
	copy(dup[arena(s)+itemSize:], dup[arena(s):arena(s)+itemSize])
	reseal(dup)
	want, wantErr := referenceReadAll(dup)
	pc, err := ReadPagedAll(dup)
	sameLoad(t, "repeated item", pc, err, want, wantErr)
	_, fromStore := invindex.NewMutableFromStore(pc.Store(), pc.IDs(), pc.Layout().Slots, 0, invindex.FilterValidateDrop, 0)
	_, fromSlots := invindex.NewMutable(want, 0, invindex.FilterValidateDrop, 0)
	if fromStore == nil || fromSlots == nil || fromStore.Error() != fromSlots.Error() ||
		!bytes.Contains([]byte(fromStore.Error()), []byte(fmt.Sprintf("slot %d:", s))) {
		t.Fatalf("repeated item in slot %d: built over the store %v, over the slots %v", s, fromStore, fromSlots)
	}
}

// TestCheckpointLoaderMatchesReference holds OpenPagedDir to referenceLoad
// over pages.v3 read whole through the footer's page map, after checkpoints
// that moved and reused pages, and with one of the mapped pages rotted.
func TestCheckpointLoaderMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(51))
	dir := t.TempDir()
	slots := randomSlots(rng, 12000, 10)
	pg := NewPager(dir, nil)
	for seq := uint64(1); seq <= 3; seq++ {
		for range 3 { // delete, replace and append rankings between checkpoints
			switch i := rng.Intn(len(slots)); rng.Intn(3) {
			case 0:
				slots[i] = nil
			case 1:
				slots[i] = randomRanking(rng, 10)
			default:
				slots = append(slots, randomRanking(rng, 10))
			}
		}
		if _, err := pg.WriteCheckpoint(seq, slots); err != nil {
			t.Fatal(err)
		}
	}
	ft := pg.Prev()
	if slices.IsSorted(ft.PageMap) {
		t.Fatal("the checkpoints moved no page out of order")
	}
	check := func(what string) error {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, DataFileName))
		if err != nil {
			t.Fatal(err)
		}
		l := ft.Layout
		want, wantErr := referenceLoad(l,
			func(p int) []byte { return data[int(ft.PageMap[p])*l.PageSize:][:l.PageSize] },
			func(p int) uint32 { return ft.CRCs[p] })
		pc, _, err := OpenPagedDir(dir, FooterPath(dir, 3), false)
		sameLoad(t, what, pc, err, want, wantErr)
		if wantErr == nil {
			slotsEqual(t, slots, want)
		}
		return wantErr
	}
	if err := check("page map"); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, DataFileName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xff}, int64(ft.PageMap[ft.Layout.Pages()-2])*int64(ft.Layout.PageSize)+9); err != nil {
		t.Fatal(err)
	}
	if err := check("rotted arena page"); err == nil {
		t.Fatal("a rotted page loaded")
	}
}
