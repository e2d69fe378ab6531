package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

func mutate(rng *rand.Rand, slots []ranking.Ranking, tr *SlotTracker, n int) []ranking.Ranking {
	out := append([]ranking.Ranking(nil), slots...)
	for i := 0; i < n; i++ {
		s := rng.Intn(len(out) + 1)
		r := randomRanking(rng, 10)
		switch {
		case s == len(out):
			out = append(out, r)
			tr.MarkInsert(s)
		case out[s] == nil:
			out[s] = r
			tr.MarkInsert(s)
		case rng.Intn(3) == 0:
			out[s] = nil
			tr.MarkDelete(s)
		default:
			out[s] = r
			tr.MarkUpdate(s)
		}
	}
	return out
}

// TestPagerIncremental is the page-economy assertion of the issue: after a
// full first checkpoint, a small mutation burst must rewrite only the pages
// the dirt touches, with everything else carried by reference.
func TestPagerIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	dir := t.TempDir()
	slots := randomSlots(rng, 5000, 10)

	p := NewPager(dir, nil, nil)
	st1, err := p.WriteCheckpoint(1, slots, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := p.Prev().Layout
	if st1.PagesWritten != l.Pages() || st1.PagesReused != 0 {
		t.Fatalf("first checkpoint wrote %d/%d pages, reused %d; want full write",
			st1.PagesWritten, l.Pages(), st1.PagesReused)
	}
	slotsEqual(t, slots, loadDir(t, dir))

	tr := NewSlotTracker()
	slots2 := mutate(rng, slots, tr, 8)
	st2, err := p.WriteCheckpoint(2, slots2, tr.Capture())
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
	p := NewPager(dir, nil, nil)
	if _, err := p.WriteCheckpoint(1, slots, nil); err != nil {
		t.Fatal(err)
	}
	size1 := dataFileSize(t, dir)
	for seq := uint64(2); seq <= 6; seq++ {
		tr := NewSlotTracker()
		slots = mutate(rng, slots, tr, 4)
		if _, err := p.WriteCheckpoint(seq, slots, tr.Capture()); err != nil {
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

// TestPagerPinnedPagesSurvive: a checkpoint's pages stay byte-stable while a
// mapping of them is pinned, no matter how many later checkpoints land.
func TestPagerPinnedPagesSurvive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	dir := t.TempDir()
	slots := randomSlots(rng, 4000, 10)
	p0 := NewPager(dir, nil, nil)
	if _, err := p0.WriteCheckpoint(1, slots, nil); err != nil {
		t.Fatal(err)
	}
	pc, ft, err := OpenPagedDir(dir, FooterPath(dir, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]ranking.Ranking(nil), pc.Slots()...)
	for i, r := range want {
		if r != nil {
			want[i] = append(ranking.Ranking(nil), r...)
		}
	}

	p := NewPager(dir, ft, ft) // pinned: the mapping above
	cur := slots
	for seq := uint64(2); seq <= 8; seq++ {
		tr := NewSlotTracker()
		cur = mutate(rng, cur, tr, 50)
		if _, err := p.WriteCheckpoint(seq, cur, tr.Capture()); err != nil {
			t.Fatal(err)
		}
		for old := uint64(1); old < seq; old++ {
			os.Remove(FooterPath(dir, old)) // even with its footer gone, the pin must hold
		}
	}
	slotsEqual(t, want, pc.Slots())
	slotsEqual(t, cur, loadDir(t, dir))
	pc.Close()
}

// TestPagerCrashEveryStep kills the checkpoint install at every hook step
// and asserts the directory always recovers to exactly the previous or the
// new checkpoint — never a blend — and that a retried checkpoint with the
// merged-back dirt then succeeds. Run under -race in CI.
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
			p := NewPager(dir, nil, nil)
			if _, err := p.WriteCheckpoint(1, prev, nil); err != nil {
				t.Fatal(err)
			}

			tr := NewSlotTracker()
			next := mutate(rng, prev, tr, 10)
			dirt := tr.Capture()
			boom := errors.New("injected crash")
			p.TestHook = func(s string) error {
				if s == step {
					return boom
				}
				return nil
			}
			_, err := p.WriteCheckpoint(2, next, dirt)
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
			// the surviving footer and the retried checkpoint (dirt merged
			// back when the install did not commit) must land state `next`.
			ft, err := LoadFooter(newestFooter(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			if !isNext {
				tr2 := NewSlotTracker()
				tr2.MergeBack(dirt)
				p2 := NewPager(dir, ft, nil)
				if _, err := p2.WriteCheckpoint(3, next, tr2.Capture()); err != nil {
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
	p := NewPager(dir, nil, nil)
	st, err := p.WriteCheckpoint(1, nil, nil)
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
	// First insert after the empty checkpoint defines k: geometry change,
	// pager must fall back to a full (1-slot) rewrite, not a diff.
	tr := NewSlotTracker()
	tr.MarkInsert(0)
	if _, err := p.WriteCheckpoint(2, []ranking.Ranking{{1, 2, 3}}, tr.Capture()); err != nil {
		t.Fatal(err)
	}
	slotsEqual(t, []ranking.Ranking{{1, 2, 3}}, loadDir(t, dir))
}

func TestFooterCorruption(t *testing.T) {
	dir := t.TempDir()
	p := NewPager(dir, nil, nil)
	if _, err := p.WriteCheckpoint(1, []ranking.Ranking{{1, 2, 3}, nil}, nil); err != nil {
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

func TestSlotTracker(t *testing.T) {
	tr := NewSlotTracker()
	l := Layout{PageSize: minPageSize, K: 10, Slots: 10000}
	if got := tr.DirtyPages(l); got != 0 {
		t.Fatalf("fresh tracker reports %d dirty pages", got)
	}
	tr.MarkInsert(0)
	tr.MarkUpdate(1) // same arena page as slot 0, different flag behavior
	tr.MarkDelete(9999)
	if got := tr.DirtySlots(); got != 3 {
		t.Fatalf("DirtySlots = %d, want 3", got)
	}
	if got := tr.MaxSlot(); got != 9999 {
		t.Fatalf("MaxSlot = %d, want 9999", got)
	}
	d := tr.Capture()
	if tr.DirtySlots() != 0 || tr.MaxSlot() != -1 {
		t.Fatal("capture did not reset the tracker")
	}
	pages := d.Pages(l)
	// slot 0: flag page 0 + arena page; slot 1: arena page only (same as 0);
	// slot 9999: flag page 9999/4096=2 only.
	if !pages[0] || !pages[2] {
		t.Fatalf("expected flag pages 0 and 2 dirty, got %v", pages)
	}
	ap, _ := l.arenaPos(0)
	if !pages[ap] {
		t.Fatalf("expected arena page %d dirty, got %v", ap, pages)
	}
	if len(pages) != 3 {
		t.Fatalf("expected 3 dirty pages, got %v", pages)
	}

	tr.MergeBack(d)
	if tr.DirtySlots() != 3 {
		t.Fatal("merge-back lost slots")
	}
	tr.MarkAll()
	if got := tr.DirtyPages(l); got != l.Pages() {
		t.Fatalf("poisoned tracker reports %d dirty pages, want all %d", got, l.Pages())
	}
	if !tr.Capture().All {
		t.Fatal("capture dropped the All poison")
	}
}

func ExamplePager() {
	dir, _ := os.MkdirTemp("", "pager-example-*")
	defer os.RemoveAll(dir)
	p := NewPager(dir, nil, nil)
	slots := make([]ranking.Ranking, 20000)
	for i := range slots {
		slots[i] = ranking.Ranking{uint32(i), uint32(i + 1), uint32(i + 2)}
	}
	st1, _ := p.WriteCheckpoint(1, slots, nil)
	tr := NewSlotTracker()
	slots[7] = ranking.Ranking{9, 9, 9}
	tr.MarkUpdate(7)
	st2, _ := p.WriteCheckpoint(2, slots, tr.Capture())
	fmt.Printf("full: %d written, %d reused\n", st1.PagesWritten, st1.PagesReused)
	fmt.Printf("incr: %d written, %d reused\n", st2.PagesWritten, st2.PagesReused)
	// Output:
	// full: 5 written, 0 reused
	// incr: 1 written, 4 reused
	_ = os.RemoveAll(dir)
}
