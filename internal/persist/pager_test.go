package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"topk/internal/ranking"
)

// newestFooter scans dir like recovery does: newest decodable
// checkpoint-*.v3f wins. Returns "" when none exists.
func newestFooter(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, FooterSuffix) {
			continue
		}
		if name > newest {
			newest = name
		}
	}
	if newest == "" {
		return ""
	}
	return filepath.Join(dir, newest)
}

func loadDir(t *testing.T, dir string) []ranking.Ranking {
	t.Helper()
	fp := newestFooter(t, dir)
	if fp == "" {
		t.Fatal("no checkpoint footer in directory")
	}
	pc, _, err := OpenPagedDir(dir, fp, false)
	if err != nil {
		t.Fatalf("open %s: %v", fp, err)
	}
	return pc.Slots()
}

func mutate(rng *rand.Rand, slots []ranking.Ranking, n int) []ranking.Ranking {
	out := append([]ranking.Ranking(nil), slots...)
	for i := 0; i < n; i++ {
		s := rng.Intn(len(out) + 1)
		r := randomRanking(rng, 10)
		switch {
		case s == len(out):
			out = append(out, r)
		case out[s] != nil && rng.Intn(3) == 0:
			out[s] = nil
		default:
			out[s] = r
		}
	}
	return out
}

// TestPagerIncremental is the page-economy assertion of the issue: after a
// full first checkpoint, a small mutation burst must rewrite only the pages
// it changed, with everything else carried by reference.
func TestPagerIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	dir := t.TempDir()
	slots := randomSlots(rng, 5000, 10)

	p := NewPager(dir, nil)
	st1, err := p.WriteCheckpoint(1, slots)
	if err != nil {
		t.Fatal(err)
	}
	l := p.Prev().Layout
	if st1.PagesWritten != l.Pages() || st1.PagesReused != 0 {
		t.Fatalf("first checkpoint wrote %d/%d pages, reused %d; want full write",
			st1.PagesWritten, l.Pages(), st1.PagesReused)
	}
	slotsEqual(t, slots, loadDir(t, dir))

	slots2 := mutate(rng, slots, 8)
	st2, err := p.WriteCheckpoint(2, slots2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.PagesWritten == 0 || st2.PagesWritten > 12 {
		t.Fatalf("8-slot burst wrote %d pages; want a handful", st2.PagesWritten)
	}
	if st2.PagesReused < l.Pages()-st2.PagesWritten {
		t.Fatalf("8-slot burst reused %d pages of %d", st2.PagesReused, l.Pages())
	}
	if st2.BytesWritten != int64(st2.PagesWritten)*int64(l.PageSize) {
		t.Fatalf("bytesWritten %d does not match %d pages", st2.BytesWritten, st2.PagesWritten)
	}
	slotsEqual(t, slots2, loadDir(t, dir))

	// The superseded checkpoint-1 footer still loads its exact state: shadow
	// paging never touched its pages.
	pc1, _, err := OpenPagedDir(dir, FooterPath(dir, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	slotsEqual(t, slots, pc1.Slots())
}

// TestPagerFreeListReuse: after old footers are deleted (what WAL truncation
// does), their physical pages are reclaimed instead of growing pages.v3.
func TestPagerFreeListReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	dir := t.TempDir()
	slots := randomSlots(rng, 5000, 10)
	p := NewPager(dir, nil)
	if _, err := p.WriteCheckpoint(1, slots); err != nil {
		t.Fatal(err)
	}
	size1 := dataFileSize(t, dir)
	for seq := uint64(2); seq <= 6; seq++ {
		slots = mutate(rng, slots, 4)
		if _, err := p.WriteCheckpoint(seq, slots); err != nil {
			t.Fatal(err)
		}
		// Truncate like wal.Log.Checkpoint: drop all older footers.
		for old := uint64(1); old < seq; old++ {
			os.Remove(FooterPath(dir, old))
		}
	}
	slotsEqual(t, slots, loadDir(t, dir))
	if size6 := dataFileSize(t, dir); size6 > size1*2 {
		t.Fatalf("pages.v3 grew from %d to %d across 5 tiny checkpoints; free pages are not reused", size1, size6)
	}
}

func dataFileSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, DataFileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestPagerCrashEveryStep kills the checkpoint install at every hook step
// and asserts the directory always recovers to exactly the previous or the
// new checkpoint — never a blend — and that a retried checkpoint of the same
// slots then succeeds. Run under -race in CI.
func TestPagerCrashEveryStep(t *testing.T) {
	steps := []string{
		"write-page", "pages-written", "data-synced",
		"footer-temp", "footer-synced", "footer-renamed", "dir-synced",
	}
	for _, step := range steps {
		t.Run(step, func(t *testing.T) {
			rng := rand.New(rand.NewSource(54))
			dir := t.TempDir()
			prev := randomSlots(rng, 3000, 10)
			p := NewPager(dir, nil)
			if _, err := p.WriteCheckpoint(1, prev); err != nil {
				t.Fatal(err)
			}

			next := mutate(rng, prev, 10)
			boom := errors.New("injected crash")
			p.TestHook = func(s string) error {
				if s == step {
					return boom
				}
				return nil
			}
			_, err := p.WriteCheckpoint(2, next)
			if !errors.Is(err, boom) {
				t.Fatalf("hooked checkpoint returned %v, want injected crash", err)
			}
			p.TestHook = nil

			// Recovery: the newest decodable footer must describe exactly one
			// of the two states.
			got := loadDir(t, dir)
			isPrev, isNext := slotsMatch(prev, got), slotsMatch(next, got)
			if !isPrev && !isNext {
				t.Fatalf("crash at %s: recovered state is a blend (matches neither checkpoint)", step)
			}
			// Before the rename lands the directory must still say checkpoint 1.
			switch step {
			case "write-page", "pages-written", "data-synced", "footer-temp", "footer-synced":
				if !isPrev {
					t.Fatalf("crash at %s: new checkpoint visible before its commit point", step)
				}
			case "footer-renamed", "dir-synced":
				if !isNext {
					t.Fatalf("crash at %s: checkpoint not visible after its commit point", step)
				}
			}

			// The crashed process restarts: recovery seeds a fresh pager from
			// the surviving footer and, when the install did not commit, the
			// retried checkpoint of the same slots must land state `next`.
			ft, err := LoadFooter(newestFooter(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			if !isNext {
				p2 := NewPager(dir, ft)
				if _, err := p2.WriteCheckpoint(3, next); err != nil {
					t.Fatalf("retry after crash at %s: %v", step, err)
				}
			}
			if got := loadDir(t, dir); !slotsMatch(next, got) {
				t.Fatalf("after recovery from crash at %s the directory does not hold the new state", step)
			}
		})
	}
}

func slotsMatch(a, b []ranking.Ranking) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] != nil && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestPagerEmptyCollection: checkpointing an empty collection (fresh mutable
// collection, no inserts yet) must work and recover as empty.
func TestPagerEmptyCollection(t *testing.T) {
	dir := t.TempDir()
	p := NewPager(dir, nil)
	st, err := p.WriteCheckpoint(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesWritten != 0 {
		t.Fatalf("empty checkpoint wrote %d pages", st.PagesWritten)
	}
	pc, _, err := OpenPagedDir(dir, FooterPath(dir, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Slots()) != 0 {
		t.Fatalf("empty checkpoint recovered %d slots", len(pc.Slots()))
	}
	// First insert after the empty checkpoint defines k: every page of the
	// new geometry is new and must be written.
	st, err = p.WriteCheckpoint(2, []ranking.Ranking{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesWritten != 2 || st.PagesReused != 0 {
		t.Fatalf("first insert after an empty checkpoint wrote %d pages, reused %d; want 2 and 0", st.PagesWritten, st.PagesReused)
	}
	slotsEqual(t, []ranking.Ranking{{1, 2, 3}}, loadDir(t, dir))
}

// TestPagerRewritesRottedPage: a page that rotted on disk after checkpoint 1
// is rewritten by checkpoint 2, not carried forward under a checksum it no
// longer matches — once the log below checkpoint 2 is truncated nothing else
// could rebuild it. That holds for rot in a live row, which rendering
// overwrites, and for rot in a byte rendering leaves alone (an arena page's
// tail), and for pages the file lost altogether. A write-back of identical
// bytes writes no page at all.
func TestPagerRewritesRottedPage(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	dir := t.TempDir()
	slots := randomSlots(rng, 5000, 10)
	last := len(slots) - 1
	slots[last] = randomRanking(rng, 10) // live, so updating it moves no flag byte
	p := NewPager(dir, nil)
	if _, err := p.WriteCheckpoint(1, slots); err != nil {
		t.Fatal(err)
	}
	ft1 := p.Prev()
	l := ft1.Layout
	if l.ArenaPages() < 3 {
		t.Fatalf("layout %+v has %d arena pages, want at least 3", l, l.ArenaPages())
	}
	rowPage, _ := l.arenaPos(0) // slot 0 is always live
	tailPage := rowPage + 1
	lastPage, _ := l.arenaPos(last)
	if lastPage <= tailPage {
		t.Fatalf("slot %d shares a rotted page", last)
	}

	path := filepath.Join(dir, DataFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	page := func(lp int) []byte {
		off := int(ft1.PageMap[lp]) * l.PageSize
		return data[off : off+l.PageSize]
	}
	flipArenaByte(l, 0, page(rowPage))
	page(tailPage)[l.PageSize-1] ^= 0x40 // past the last whole row
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	next := append([]ranking.Ranking(nil), slots...)
	next[last] = randomRanking(rng, 10)
	st2, err := p.WriteCheckpoint(2, next)
	if err != nil {
		t.Fatal(err)
	}
	pc, _, err := OpenPagedDir(dir, FooterPath(dir, 2), false)
	if err != nil {
		t.Fatalf("checkpoint 2 carried a rotted page forward: %v", err)
	}
	slotsEqual(t, next, pc.Slots())
	for _, lp := range []int{rowPage, tailPage, lastPage} {
		if p.Prev().PageMap[lp] == ft1.PageMap[lp] {
			t.Fatalf("logical page %d kept its physical page, want it rewritten", lp)
		}
	}
	if st2.PagesWritten != 3 || st2.PagesReused != l.Pages()-3 {
		t.Fatalf("checkpoint 2 wrote %d pages, reused %d; want 3 and %d", st2.PagesWritten, st2.PagesReused, l.Pages()-3)
	}

	// An update that writes back the same ranking changes no byte.
	next[0] = append(ranking.Ranking(nil), next[0]...)
	st3, err := p.WriteCheckpoint(3, next)
	if err != nil {
		t.Fatal(err)
	}
	if st3.PagesWritten != 0 || st3.PagesReused != l.Pages() {
		t.Fatalf("identical write-back wrote %d pages, reused %d; want 0 and %d", st3.PagesWritten, st3.PagesReused, l.Pages())
	}
	slotsEqual(t, next, loadDir(t, dir))

	// Pages a cut-short pages.v3 no longer holds are written anew.
	lost := slices.Max(p.Prev().PageMap)
	if err := os.Truncate(path, int64(lost)*int64(l.PageSize)); err != nil {
		t.Fatal(err)
	}
	st4, err := p.WriteCheckpoint(4, next)
	if err != nil {
		t.Fatal(err)
	}
	if st4.PagesWritten == 0 {
		t.Fatal("checkpoint over a cut-short page file wrote nothing")
	}
	slotsEqual(t, next, loadDir(t, dir))
}

func TestFooterCorruption(t *testing.T) {
	dir := t.TempDir()
	p := NewPager(dir, nil)
	if _, err := p.WriteCheckpoint(1, []ranking.Ranking{{1, 2, 3}, nil}); err != nil {
		t.Fatal(err)
	}
	path := FooterPath(dir, 1)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(good); off += 3 {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := decodeFooter(bad); err == nil {
			t.Fatalf("footer with byte %d flipped decoded cleanly", off)
		}
	}
	for cut := 1; cut < len(good); cut += 5 {
		if _, err := decodeFooter(good[:len(good)-cut]); err == nil {
			t.Fatalf("footer truncated by %d decoded cleanly", cut)
		}
	}
	// A footer whose page map points past pages.v3 must be rejected at open.
	ft, err := LoadFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	ft.PhysPages += 10
	for i := range ft.PageMap {
		ft.PageMap[i] += 5
	}
	if err := os.WriteFile(path, encodeFooter(ft), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenPagedDir(dir, path, false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-file page map: got %v, want ErrCorrupt", err)
	}
}

func ExamplePager() {
	dir, _ := os.MkdirTemp("", "pager-example-*")
	defer os.RemoveAll(dir)
	p := NewPager(dir, nil)
	slots := make([]ranking.Ranking, 20000)
	for i := range slots {
		slots[i] = ranking.Ranking{uint32(i), uint32(i + 1), uint32(i + 2)}
	}
	st1, _ := p.WriteCheckpoint(1, slots)
	slots[7] = ranking.Ranking{9, 10, 11}
	st2, _ := p.WriteCheckpoint(2, slots)
	fmt.Printf("full: %d written, %d reused\n", st1.PagesWritten, st1.PagesReused)
	fmt.Printf("incr: %d written, %d reused\n", st2.PagesWritten, st2.PagesReused)
	// Output:
	// full: 5 written, 0 reused
	// incr: 1 written, 4 reused
	_ = os.RemoveAll(dir)
}

// TestFooterSeq: FooterSeq reads back the sequence number of every name
// FooterPath makes, and refuses every other name a WAL directory can hold.
func TestFooterSeq(t *testing.T) {
	for _, seq := range []uint64{1, 0x2a, 1<<64 - 1} {
		if got, ok := FooterSeq(filepath.Base(FooterPath("dir", seq))); !ok || got != seq {
			t.Errorf("FooterSeq(FooterPath(%d)) = %d, %v", seq, got, ok)
		}
	}
	for _, name := range []string{
		"checkpoint-0000000000000000.v3f", // seq 0 is no checkpoint
		"checkpoint-0000000000000001.bin", // the legacy monolithic file
		"0000000000000001.v3f",
		"checkpoint-zz.v3f",
		"checkpoint-.v3f",
		DataFileName,
		"wal-0000000000000001.log",
	} {
		if seq, ok := FooterSeq(name); ok {
			t.Errorf("FooterSeq(%q) = %d, true; want false", name, seq)
		}
	}
}
