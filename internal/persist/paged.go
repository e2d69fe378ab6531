// Snapshot format v3: a paged, page-aligned layout whose data region is
// the kernel.Store k-strided ranking arena plus a one-byte-per-slot
// liveness table, cut into fixed-size pages with a per-page CRC-32C and a
// footer index. Fixed pages are what make checkpoints incremental (see
// pager.go): a mutation changes only the few pages its slot lives on, and a
// checkpoint writes only the pages that differ from the previous one. Loading
// (loadPaged) reads the pages of the file, or of the shared page file of an
// incremental checkpoint, on parallel workers, verifies every page checksum
// — flag and arena pages alike — and copies each live row once, straight
// into the kernel.Store an index is built over, with the slot of each row
// beside it: no file-sized buffer, no slot array.
//
// Single-file layout (WritePagedTo / OpenPagedFile):
//
//	[0, 4096)    header: magic "TKP3", version 3, pageSize, k,
//	             slotCount (u64), pageCount, headerSize, CRC-32C of the
//	             preceding 32 bytes; zero padding.
//	[4096, …)    the logical pages in order: first the flag pages (one
//	             liveness byte per slot, pageSize slots per page), then the
//	             arena pages (⌊pageSize/4k⌋ rankings per page, k little-
//	             endian uint32 items each, rows never straddling a page).
//	tail         footer: pageCount × u32 page CRC-32Cs, u32 CRC of that
//	             table, u32 table length, u32 footer magic "TKPF".
//
// Every count in the header is validated against the actual file size
// before anything is allocated, so truncated or bit-flipped snapshots fail
// with ErrCorrupt instead of provoking huge allocations or panics.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"topk/internal/kernel"
	"topk/internal/ranking"
)

const (
	pagedMagic  = 0x544b5033 // "TKP3"
	footerMagic = 0x544b5046 // "TKPF"
	versionV3   = 3

	// DefaultPageSize is the v3 page size: large enough that the footer
	// stays tiny relative to the data, small enough that an incremental
	// checkpoint after a small mutation burst rewrites little.
	DefaultPageSize = 1 << 16

	// pagedHeaderSize is the fixed offset of the page region in single-file
	// snapshots.
	pagedHeaderSize = 4096

	minPageSize     = 1 << 12
	maxPageSize     = 1 << 24
	itemSize        = 4 // bytes per ranking.Item (uint32)
	pagedTrailerLen = 12
	maxSlotCount    = 1 << 40
)

// ErrCorrupt is returned when a snapshot is structurally inconsistent —
// checksum mismatch, geometry that does not fit the file, counts that
// disagree with each other. Distinct from ErrBadFormat, which means "not
// this artifact kind / unknown version".
var ErrCorrupt = errors.New("persist: corrupt snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Layout fixes the page geometry of a v3 snapshot. Flag pages come first
// (pageSize slots per page), then arena pages (SlotsPerArenaPage rankings
// per page); a ranking row never straddles a page, so a slot view is one
// contiguous byte range of one page.
type Layout struct {
	PageSize int
	K        int
	Slots    int
}

func (l Layout) validate() error {
	switch {
	case l.PageSize < minPageSize || l.PageSize > maxPageSize || l.PageSize%itemSize != 0:
		return fmt.Errorf("%w: implausible page size %d", ErrCorrupt, l.PageSize)
	case l.K < 0 || l.K > ranking.MaxK:
		return fmt.Errorf("%w: implausible k=%d", ErrCorrupt, l.K)
	case l.Slots < 0 || int64(l.Slots) > maxSlotCount:
		return fmt.Errorf("%w: implausible slot count %d", ErrCorrupt, l.Slots)
	}
	return nil
}

// FlagPages is the number of liveness pages: one byte per slot.
func (l Layout) FlagPages() int { return ceilDiv(l.Slots, l.PageSize) }

// SlotsPerArenaPage is how many ranking rows fit one arena page; 0 when the
// collection has no live rankings yet (k undefined).
func (l Layout) SlotsPerArenaPage() int {
	if l.K == 0 {
		return 0
	}
	return l.PageSize / (l.K * itemSize)
}

// ArenaPages is the number of ranking pages.
func (l Layout) ArenaPages() int {
	spp := l.SlotsPerArenaPage()
	if spp == 0 {
		return 0
	}
	return ceilDiv(l.Slots, spp)
}

// Pages is the total logical page count (flag pages then arena pages).
func (l Layout) Pages() int { return l.FlagPages() + l.ArenaPages() }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// materializePage renders logical page p over slots into buf (len PageSize):
// the flag byte of every slot on a flag page, the row of every live slot on
// an arena page. Every other byte keeps what buf held — dead rows and a
// page's tail are don't-care, since only the flag page says which arena
// bytes are meaningful. The single-file writer renders over zeros; a
// checkpoint renders over the previous checkpoint's page, so a deleted
// ranking's stale bytes stay and its arena page can be reused unchanged.
func (l Layout) materializePage(p int, slots []ranking.Ranking, buf []byte) {
	if p < l.FlagPages() {
		lo := p * l.PageSize
		hi := min(lo+l.PageSize, l.Slots)
		for s := lo; s < hi; s++ {
			buf[s-lo] = 0
			if slots[s] != nil {
				buf[s-lo] = 1
			}
		}
		return
	}
	spp := l.SlotsPerArenaPage()
	lo := (p - l.FlagPages()) * spp
	hi := min(lo+spp, l.Slots)
	stride := l.K * itemSize
	for s := lo; s < hi; s++ {
		r := slots[s]
		if r == nil {
			continue
		}
		off := (s - lo) * stride
		for j, it := range r {
			binary.LittleEndian.PutUint32(buf[off+j*itemSize:], it)
		}
	}
}

// slotsK is the slot array's ranking size: the first live slot's, 0 when all
// slots are tombstones.
func slotsK(slots []ranking.Ranking) int {
	if i := slices.IndexFunc(slots, func(r ranking.Ranking) bool { return r != nil }); i >= 0 {
		return max(slots[i].K(), 1) // a ranking holds at least one item
	}
	return 0
}

// collectionK is slotsK after a ranking.Check of every live slot against it,
// so no snapshot holds a slot no load could accept.
func collectionK(slots []ranking.Ranking) (int, error) {
	k := slotsK(slots)
	for id, r := range slots {
		if r == nil {
			continue
		}
		if err := ranking.Check(r, k); err != nil {
			return 0, fmt.Errorf("persist: slot %d: %w", id, err)
		}
	}
	return k, nil
}

// WritePagedTo serializes the external-id slot view of a collection as a
// single-file v3 snapshot (see the package comment for the layout) and
// returns the bytes written: slots[id] is the live ranking under id, nil a
// tombstone, and reloading preserves the id assignment exactly — deleted ids
// stay retired, trailing ones included (the slot count, not the last live
// slot, delimits the id space, so the next insert continues the sequence).
// A mutated index's tombstones flatten into exactly this slot view, so a
// snapshot taken between compactions reloads as a freshly built index.
func WritePagedTo(w io.Writer, slots []ranking.Ranking) (int64, error) {
	return writePaged(w, slots, DefaultPageSize)
}

func writePaged(w io.Writer, slots []ranking.Ranking, pageSize int) (int64, error) {
	k, err := collectionK(slots)
	if err != nil {
		return 0, err
	}
	l := Layout{PageSize: pageSize, K: k, Slots: len(slots)}
	if err := l.validate(); err != nil {
		return 0, err
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	le := binary.LittleEndian
	hdr := make([]byte, pagedHeaderSize)
	le.PutUint32(hdr[0:], pagedMagic)
	le.PutUint32(hdr[4:], versionV3)
	le.PutUint32(hdr[8:], uint32(l.PageSize))
	le.PutUint32(hdr[12:], uint32(l.K))
	le.PutUint64(hdr[16:], uint64(l.Slots))
	le.PutUint32(hdr[24:], uint32(l.Pages()))
	le.PutUint32(hdr[28:], pagedHeaderSize)
	le.PutUint32(hdr[32:], crc32.Checksum(hdr[:32], castagnoli))
	if _, err := bw.Write(hdr); err != nil {
		return cw.n, err
	}
	buf := make([]byte, l.PageSize)
	table := make([]byte, 0, l.Pages()*4+pagedTrailerLen)
	for p := 0; p < l.Pages(); p++ {
		clear(buf)
		l.materializePage(p, slots, buf)
		table = le.AppendUint32(table, crc32.Checksum(buf, castagnoli))
		if _, err := bw.Write(buf); err != nil {
			return cw.n, err
		}
	}
	sum := crc32.Checksum(table, castagnoli)
	table = le.AppendUint32(table, sum)
	table = le.AppendUint32(table, uint32(l.Pages()*4))
	table = le.AppendUint32(table, footerMagic)
	if _, err := bw.Write(table); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// WritePagedFile writes a single-file v3 snapshot at path atomically (see
// ReplaceFile): a failed write leaves any snapshot already at path as it was.
func WritePagedFile(path string, slots []ranking.Ranking) error {
	return ReplaceFile(path, func(w io.Writer) error {
		_, err := WritePagedTo(w, slots)
		return err
	})
}

// ReplaceFile durably replaces the file at path with what write writes: into
// a temp file in path's directory, fsynced and closed, then renamed over path
// and the directory fsynced. On failure the file already at path is left as
// it was, and the temp file is removed.
func ReplaceFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after the rename
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// PagedCollection is a loaded, fully verified v3 snapshot: its live rows,
// in slot order, in one kernel.Store, and the slot of each row.
type PagedCollection struct {
	layout Layout
	store  *kernel.Store
	ids    []ranking.ID
}

// Store holds the live rankings in slot order: row i is the ranking under
// slot IDs()[i]. The caller may take it over.
func (c *PagedCollection) Store() *kernel.Store { return c.store }

// IDs is the external-id column of Store: row i's slot, ascending. Every
// slot below Layout().Slots that it does not name is a tombstone.
func (c *PagedCollection) IDs() []ranking.ID { return c.ids }

// Slots builds the external-id slot array (nil entries are tombstones), its
// live entries views into Store.
func (c *PagedCollection) Slots() []ranking.Ranking {
	slots := make([]ranking.Ranking, c.layout.Slots)
	for i, id := range c.ids {
		slots[id] = c.store.Slot(ranking.ID(i))
	}
	return slots
}

// Layout is the snapshot's page geometry.
func (c *PagedCollection) Layout() Layout { return c.layout }

// Close does nothing: a loaded collection holds no resource beyond memory.
//
// Deprecated: kept until benchmark/ stops calling it (ROADMAP 1(b)).
func (c *PagedCollection) Close() error { return nil }

// loadPaged reads the logical pages of l from r — page p at byte offset
// at(p) — and checks each against its write-time checksum crc(p), flag and
// arena pages alike, so a bit-flipped ranking is ErrCorrupt, never served.
// The flag pages come first: they say which slots are live, and so where
// each arena page's live rows go in the store. The arena pages are then read
// on up to GOMAXPROCS workers, each into its own page buffer, and each live
// row is decoded straight into the store. Errors keep one order whatever the
// workers do: the lowest page whose checksum fails, else the lowest slot
// whose flag is neither 0 nor 1.
func loadPaged(l Layout, r io.ReaderAt, at func(p int) int64, crc func(p int) uint32) (*PagedCollection, error) {
	readPage := func(p int, buf []byte) error {
		if n, err := r.ReadAt(buf, at(p)); n < len(buf) {
			return fmt.Errorf("%w: page %d: %v", ErrCorrupt, p, err)
		}
		if crc32.Checksum(buf, castagnoli) != crc(p) {
			return fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, p)
		}
		return nil
	}
	fp := l.FlagPages()
	flags := make([]byte, fp*l.PageSize)
	for p := range fp {
		if err := readPage(p, flags[p*l.PageSize:(p+1)*l.PageSize]); err != nil {
			return nil, err
		}
	}
	flags = flags[:l.Slots]
	var flagErr error
	for s, f := range flags {
		switch {
		case f > 1:
			flagErr = fmt.Errorf("%w: slot %d has flag %d", ErrCorrupt, s, f)
		case f == 1 && l.K == 0:
			flagErr = fmt.Errorf("%w: live slot %d in a k=0 snapshot", ErrCorrupt, s)
		default:
			continue
		}
		break
	}
	// before[a] counts the live slots ahead of arena page a: the store row
	// its first live slot fills.
	spp, ap := l.SlotsPerArenaPage(), l.ArenaPages()
	before := make([]int, ap+1)
	for a := 0; a < ap && flagErr == nil; a++ {
		n := 0
		for _, f := range flags[a*spp : min((a+1)*spp, l.Slots)] {
			n += int(f)
		}
		before[a+1] = before[a] + n
	}
	live := before[ap]

	flat, ids := make([]ranking.Item, live*l.K), make([]ranking.ID, live)
	stride := l.K * itemSize
	w := min(runtime.GOMAXPROCS(0), ap)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for c := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, l.PageSize)
			for a := c * ap / w; a < (c+1)*ap/w; a++ {
				if err := readPage(fp+a, buf); err != nil {
					errs[c] = err
					return
				}
				if flagErr != nil {
					continue // only the checksums still decide the error
				}
				row := before[a]
				for s := a * spp; s < min((a+1)*spp, l.Slots); s++ {
					if flags[s] == 0 {
						continue
					}
					b, dst := buf[(s-a*spp)*stride:], flat[row*l.K:(row+1)*l.K]
					for j := range dst {
						dst[j] = binary.LittleEndian.Uint32(b[j*itemSize:])
					}
					ids[row] = ranking.ID(s)
					row++
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if flagErr != nil {
		return nil, flagErr
	}
	return &PagedCollection{layout: l, store: kernel.NewStoreFlat(l.K, flat), ids: ids}, nil
}

// parsePagedHeader validates the fixed header of a single-file snapshot of
// size bytes, hdr its first min(size, pagedHeaderSize) bytes, against that
// size and returns the geometry. Nothing sized by a header field is
// allocated before this passes.
func parsePagedHeader(hdr []byte, size int64) (Layout, error) {
	le := binary.LittleEndian
	if len(hdr) >= 4 && le.Uint32(hdr) == legacyMagic {
		return Layout{}, ErrLegacyFormat
	}
	if size < pagedHeaderSize+pagedTrailerLen {
		return Layout{}, fmt.Errorf("%w: %d bytes is shorter than a v3 header", ErrCorrupt, size)
	}
	if le.Uint32(hdr[0:]) != pagedMagic {
		return Layout{}, fmt.Errorf("%w: wrong magic", ErrBadFormat)
	}
	if v := le.Uint32(hdr[4:]); v != versionV3 {
		return Layout{}, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	if crc32.Checksum(hdr[:32], castagnoli) != le.Uint32(hdr[32:]) {
		return Layout{}, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	l := Layout{PageSize: int(le.Uint32(hdr[8:])), K: int(le.Uint32(hdr[12:]))}
	slots := le.Uint64(hdr[16:])
	pages := le.Uint32(hdr[24:])
	if hs := le.Uint32(hdr[28:]); hs != pagedHeaderSize {
		return Layout{}, fmt.Errorf("%w: header size %d", ErrCorrupt, hs)
	}
	if slots > maxSlotCount {
		return Layout{}, fmt.Errorf("%w: implausible slot count %d", ErrCorrupt, slots)
	}
	l.Slots = int(slots)
	if err := l.validate(); err != nil {
		return Layout{}, err
	}
	if int(pages) != l.Pages() {
		return Layout{}, fmt.Errorf("%w: header says %d pages, geometry needs %d", ErrCorrupt, pages, l.Pages())
	}
	want := int64(pagedHeaderSize) + int64(l.Pages())*int64(l.PageSize) + int64(l.Pages())*4 + pagedTrailerLen
	if size != want {
		return Layout{}, fmt.Errorf("%w: file is %d bytes, geometry needs %d", ErrCorrupt, size, want)
	}
	return l, nil
}

// checkPagedFooter validates the footer tail (the CRC table and the
// trailer) and the table's own checksum, returning the table bytes.
func checkPagedFooter(tail []byte, l Layout) ([]byte, error) {
	le := binary.LittleEndian
	tr := tail[len(tail)-pagedTrailerLen:]
	if le.Uint32(tr[8:]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	if int(le.Uint32(tr[4:])) != l.Pages()*4 {
		return nil, fmt.Errorf("%w: footer table length mismatch", ErrCorrupt)
	}
	table := tail[:l.Pages()*4]
	if crc32.Checksum(table, castagnoli) != le.Uint32(tr[0:]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	return table, nil
}

// readPaged loads the single-file v3 snapshot of size bytes that r reads:
// the header, then the footer, then every page through loadPaged.
func readPaged(r io.ReaderAt, size int64) (*PagedCollection, error) {
	hdr := make([]byte, min(size, pagedHeaderSize))
	if n, err := r.ReadAt(hdr, 0); n < len(hdr) {
		return nil, err
	}
	l, err := parsePagedHeader(hdr, size)
	if err != nil {
		return nil, err
	}
	tail := make([]byte, l.Pages()*4+pagedTrailerLen)
	if n, err := r.ReadAt(tail, size-int64(len(tail))); n < len(tail) {
		return nil, err
	}
	table, err := checkPagedFooter(tail, l)
	if err != nil {
		return nil, err
	}
	return loadPaged(l, r,
		func(p int) int64 { return pagedHeaderSize + int64(p)*int64(l.PageSize) },
		func(p int) uint32 { return binary.LittleEndian.Uint32(table[p*4:]) })
}

// ReadPagedAll parses a complete single-file v3 snapshot from memory with
// every page checksum verified. The collection copies what it keeps: data
// is the caller's again once it returns.
func ReadPagedAll(data []byte) (*PagedCollection, error) {
	return readPaged(bytes.NewReader(data), int64(len(data)))
}

// OpenPagedFile loads a single-file v3 snapshot with every page checksum
// verified, reading its pages straight into the store.
func OpenPagedFile(path string) (*PagedCollection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readPaged(f, fi.Size())
}
