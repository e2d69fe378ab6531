// Incremental v3 checkpoints: shadow paging over one shared page file.
//
// A collection's WAL directory holds one physical page file, pages.v3, and
// one footer file per durable checkpoint, checkpoint-<seq>.v3f. The footer
// is the whole truth of a checkpoint: geometry, the logical→physical page
// map, and a CRC-32C per logical page. Writing checkpoint N+1 never touches
// a physical page any existing footer references: each logical page is
// rendered over the bytes footer N maps to it and compared with them; an
// identical page whose bytes still match footer N's CRC keeps its physical
// page and checksum, every other page goes to a free or appended physical
// page. The new footer is installed by atomic rename. A crash at ANY step
// therefore leaves the directory describing either checkpoint N or
// checkpoint N+1, never a blend: until the rename lands, footer N and every
// page it maps are byte-identical to before.
//
// A checkpoint reads and compares every page, O(n) in the page cache, but
// writes only the changed pages plus one tiny footer; the log truncation
// that follows (wal.Log.Checkpoint) deletes superseded footers, whose pages
// then return to the free list of the next checkpoint. Because reuse is
// decided by comparison, a page that rotted on disk since footer N is
// rewritten, never carried forward under its old checksum. Recovery
// (OpenPagedDir) checks every mapped page of pages.v3 against the footer's
// CRC as it copies the live rows into the store, and answers nothing but an
// error if one fails.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"topk/internal/ranking"
)

const (
	// DataFileName is the shared physical page file of a collection's
	// incremental checkpoints, living next to the WAL segments.
	DataFileName = "pages.v3"
	// FooterSuffix names the per-checkpoint footer files
	// (checkpoint-<seq 16-hex>.v3f).
	FooterSuffix = ".v3f"
	footerPrefix = "checkpoint-"

	footerFixedLen = 32
)

// Footer is the per-checkpoint index of a paged directory.
type Footer struct {
	Layout Layout
	// PhysPages is the page count of pages.v3 when the footer was written.
	PhysPages int
	// PageMap maps logical page → physical page in pages.v3.
	PageMap []uint32
	// CRCs is the CRC-32C of every logical page's content.
	CRCs []uint32
}

func encodeFooter(ft *Footer) []byte {
	le := binary.LittleEndian
	b := make([]byte, footerFixedLen, footerFixedLen+8*len(ft.PageMap)+4)
	le.PutUint32(b[0:], footerMagic)
	le.PutUint32(b[4:], versionV3)
	le.PutUint32(b[8:], uint32(ft.Layout.PageSize))
	le.PutUint32(b[12:], uint32(ft.Layout.K))
	le.PutUint64(b[16:], uint64(ft.Layout.Slots))
	le.PutUint32(b[24:], uint32(len(ft.PageMap)))
	le.PutUint32(b[28:], uint32(ft.PhysPages))
	for _, pm := range ft.PageMap {
		b = le.AppendUint32(b, pm)
	}
	for _, c := range ft.CRCs {
		b = le.AppendUint32(b, c)
	}
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func decodeFooter(b []byte) (*Footer, error) {
	if len(b) < footerFixedLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a checkpoint footer", ErrCorrupt, len(b))
	}
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != footerMagic {
		return nil, fmt.Errorf("%w: wrong footer magic", ErrBadFormat)
	}
	if v := le.Uint32(b[4:]); v != versionV3 {
		return nil, fmt.Errorf("%w: unsupported footer version %d", ErrBadFormat, v)
	}
	l := Layout{PageSize: int(le.Uint32(b[8:])), K: int(le.Uint32(b[12:]))}
	slots := le.Uint64(b[16:])
	if slots > maxSlotCount {
		return nil, fmt.Errorf("%w: implausible slot count %d", ErrCorrupt, slots)
	}
	l.Slots = int(slots)
	if err := l.validate(); err != nil {
		return nil, err
	}
	pages := int(le.Uint32(b[24:]))
	phys := int(le.Uint32(b[28:]))
	if pages != l.Pages() {
		return nil, fmt.Errorf("%w: footer says %d pages, geometry needs %d", ErrCorrupt, pages, l.Pages())
	}
	if want := footerFixedLen + 8*pages + 4; len(b) != want {
		return nil, fmt.Errorf("%w: footer is %d bytes, geometry needs %d", ErrCorrupt, len(b), want)
	}
	if crc32.Checksum(b[:len(b)-4], castagnoli) != le.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	ft := &Footer{Layout: l, PhysPages: phys, PageMap: make([]uint32, pages), CRCs: make([]uint32, pages)}
	for i := range ft.PageMap {
		ft.PageMap[i] = le.Uint32(b[footerFixedLen+4*i:])
		if int(ft.PageMap[i]) >= phys {
			return nil, fmt.Errorf("%w: logical page %d maps past the %d-page file", ErrCorrupt, i, phys)
		}
	}
	for i := range ft.CRCs {
		ft.CRCs[i] = le.Uint32(b[footerFixedLen+4*pages+4*i:])
	}
	return ft, nil
}

// LoadFooter reads and fully validates a checkpoint footer file.
func LoadFooter(path string) (*Footer, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeFooter(b)
}

// OpenPagedDir loads the checkpoint footerPath describes against dir's
// shared page file: every page the footer maps is read from pages.v3 and
// checksum-verified, and the live rows go straight into the store (see
// loadPaged). The bool parameter is deprecated and ignored; it remains until
// benchmark/ stops passing it (ROADMAP 1(b)).
func OpenPagedDir(dir, footerPath string, _ bool) (*PagedCollection, *Footer, error) {
	ft, err := LoadFooter(footerPath)
	if err != nil {
		return nil, nil, err
	}
	l := ft.Layout
	f, err := os.Open(filepath.Join(dir, DataFileName))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	filePages := fi.Size() / int64(l.PageSize)
	for lp, pm := range ft.PageMap {
		if int64(pm) >= filePages {
			return nil, nil, fmt.Errorf("%w: logical page %d maps to physical page %d beyond the %d-page file",
				ErrCorrupt, lp, pm, filePages)
		}
	}
	pc, err := loadPaged(l, f,
		func(p int) int64 { return int64(ft.PageMap[p]) * int64(l.PageSize) },
		func(p int) uint32 { return ft.CRCs[p] })
	if err != nil {
		return nil, nil, err
	}
	return pc, ft, nil
}

// CheckpointStats reports one incremental checkpoint's page economy: what
// was physically written versus carried over from the previous footer.
type CheckpointStats struct {
	PagesWritten int   `json:"pagesWritten"`
	PagesReused  int   `json:"pagesReused"`
	BytesWritten int64 `json:"bytesWritten"`
	BytesReused  int64 `json:"bytesReused"`
}

// Pager writes incremental checkpoints for one directory. Not safe for
// concurrent use — the serving layer serializes checkpoints per collection.
type Pager struct {
	dir  string
	prev *Footer
	// TestHook, when non-nil, runs at each named install step; an error
	// aborts the checkpoint there, which is how the crash-safety suite
	// kills the install at every step.
	TestHook func(step string) error
}

// NewPager returns a pager for dir. prev is the footer recovery loaded
// (nil when the directory holds no v3 checkpoint yet: the first checkpoint
// then writes every page).
func NewPager(dir string, prev *Footer) *Pager {
	return &Pager{dir: dir, prev: prev}
}

// Prev returns the footer of the newest checkpoint this pager wrote or was
// seeded with.
func (p *Pager) Prev() *Footer { return p.prev }

func (p *Pager) hook(step string) error {
	if p.TestHook != nil {
		return p.TestHook(step)
	}
	return nil
}

// busyPages collects the physical pages no new write may clobber: every
// page referenced by any decodable footer file in the directory (a crash
// may fall back to any of them until truncation) and the previous in-memory
// footer.
func (p *Pager) busyPages() (map[uint32]bool, error) {
	busy := make(map[uint32]bool)
	if p.prev != nil {
		for _, pm := range p.prev.PageMap {
			busy[pm] = true
		}
	}
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return busy, nil
		}
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if _, ok := FooterSeq(name); !ok {
			continue
		}
		ft, err := LoadFooter(filepath.Join(p.dir, name))
		if err != nil {
			continue // an undecodable footer protects nothing
		}
		for _, pm := range ft.PageMap {
			busy[pm] = true
		}
	}
	return busy, nil
}

// FooterPath names checkpoint seq's footer file in dir.
func FooterPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", footerPrefix, seq, FooterSuffix))
}

// FooterSeq reports the checkpoint sequence number of a file name FooterPath
// makes, and false for any other name.
func FooterSeq(name string) (uint64, bool) {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, footerPrefix), FooterSuffix)
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil && seq > 0 && name == footerPrefix+hex+FooterSuffix
}

// prevPage reads into buf the bytes the previous footer maps to logical page
// lp. It reports false, with buf zeroed, when there are none: no previous
// footer, a page past its end, or a physical page the file no longer holds.
func (p *Pager) prevPage(f *os.File, lp int, buf []byte) (bool, error) {
	if p.prev != nil && lp < len(p.prev.PageMap) {
		_, err := f.ReadAt(buf, int64(p.prev.PageMap[lp])*int64(len(buf)))
		if !errors.Is(err, io.EOF) {
			return err == nil, err
		}
	}
	clear(buf)
	return false, nil
}

// WriteCheckpoint durably writes the collection state in slots as
// checkpoint seq. Every logical page is rendered over the bytes the previous
// footer maps to it and compared with them byte for byte: an identical page
// that still matches its recorded CRC is carried over, every other page is
// written to a physical page no footer references. On error the directory
// still describes the previous checkpoint exactly, and a retry with the
// same slots writes whatever this attempt did not install.
// The live slots must pass ranking.Check against the first's size, as an
// index's Slots views do: unlike WritePagedTo, WriteCheckpoint does not check
// them again (loading the checkpoint checks every row as it builds).
func (p *Pager) WriteCheckpoint(seq uint64, slots []ranking.Ranking) (CheckpointStats, error) {
	var st CheckpointStats
	pageSize := DefaultPageSize
	if p.prev != nil {
		pageSize = p.prev.Layout.PageSize
	}
	l := Layout{PageSize: pageSize, K: slotsK(slots), Slots: len(slots)}
	if err := l.validate(); err != nil {
		return st, err
	}
	busy, err := p.busyPages()
	if err != nil {
		return st, err
	}
	f, err := os.OpenFile(filepath.Join(p.dir, DataFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return st, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return st, err
	}
	filePages := uint32(fi.Size() / int64(l.PageSize))

	ft := &Footer{Layout: l, PageMap: make([]uint32, l.Pages()), CRCs: make([]uint32, l.Pages())}
	// Allocate physical pages for the changed pages: lowest free slots first,
	// appends past the end when none are free.
	var free, next uint32 = 0, filePages
	alloc := func() uint32 {
		for ; free < filePages; free++ {
			if !busy[free] {
				pg := free
				free++
				return pg
			}
		}
		pg := next
		next++
		return pg
	}
	old, buf := make([]byte, l.PageSize), make([]byte, l.PageSize)
	for lp := 0; lp < l.Pages(); lp++ {
		had, err := p.prevPage(f, lp, old)
		if err != nil {
			return st, err
		}
		copy(buf, old)
		l.materializePage(lp, slots, buf)
		// Equal bytes alone are not enough: a rotted byte materializePage
		// leaves alone (a dead row, the page's tail) must not be carried over
		// under a checksum it no longer matches.
		if had && bytes.Equal(buf, old) && crc32.Checksum(old, castagnoli) == p.prev.CRCs[lp] {
			ft.PageMap[lp] = p.prev.PageMap[lp]
			ft.CRCs[lp] = p.prev.CRCs[lp]
			st.PagesReused++
			continue
		}
		if err := p.hook("write-page"); err != nil {
			return st, err
		}
		phys := alloc()
		busy[phys] = true
		if _, err := f.WriteAt(buf, int64(phys)*int64(l.PageSize)); err != nil {
			return st, err
		}
		ft.PageMap[lp] = phys
		ft.CRCs[lp] = crc32.Checksum(buf, castagnoli)
		st.PagesWritten++
	}
	ft.PhysPages = int(max(filePages, next))
	st.BytesWritten = int64(st.PagesWritten) * int64(l.PageSize)
	st.BytesReused = int64(st.PagesReused) * int64(l.PageSize)
	if err := p.hook("pages-written"); err != nil {
		return st, err
	}
	if err := f.Sync(); err != nil {
		return st, err
	}
	if err := p.hook("data-synced"); err != nil {
		return st, err
	}

	// Footer install: temp → fsync → atomic rename → directory fsync. The
	// rename is the commit point.
	tmp, err := os.CreateTemp(p.dir, "footer-*.tmp")
	if err != nil {
		return st, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if _, err := tmp.Write(encodeFooter(ft)); err != nil {
		tmp.Close()
		return st, err
	}
	if err := p.hook("footer-temp"); err != nil {
		tmp.Close()
		return st, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return st, err
	}
	if err := tmp.Close(); err != nil {
		return st, err
	}
	if err := p.hook("footer-synced"); err != nil {
		return st, err
	}
	if err := os.Rename(tmp.Name(), FooterPath(p.dir, seq)); err != nil {
		return st, err
	}
	if err := p.hook("footer-renamed"); err != nil {
		// The rename already landed: the checkpoint is installed, only the
		// directory fsync (and the caller's truncation) were "crashed" away.
		p.prev = ft
		return st, err
	}
	if err := SyncDir(p.dir); err != nil {
		p.prev = ft
		return st, err
	}
	p.prev = ft
	if err := p.hook("dir-synced"); err != nil {
		return st, err
	}
	return st, nil
}

// SyncDir fsyncs the directory dir, making a rename or a file creation in it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
