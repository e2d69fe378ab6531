// Snapshot format v3: a paged, page-aligned layout whose data region is
// the kernel.Store k-strided ranking arena plus a one-byte-per-slot
// liveness table, cut into fixed-size pages with a per-page CRC-32C and a
// footer index. Fixed pages are what make checkpoints incremental (see
// pager.go): a mutation changes only the few pages its slot lives on, and a
// checkpoint writes only the pages that differ from the previous one. Loading
// reads the whole file (or the shared page file of an incremental
// checkpoint), verifies every page checksum — flag and arena pages alike —
// and only then cuts the slot array out of the verified bytes; the index
// built over it copies every ranking into its own arena.
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"

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

// hostLittle gates the zero-copy view cast: the format is fixed
// little-endian, so big-endian hosts decode copies instead.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

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

// arenaPos returns the logical page and in-page byte offset of slot i's row.
func (l Layout) arenaPos(i int) (page, off int) {
	spp := l.SlotsPerArenaPage()
	return l.FlagPages() + i/spp, (i % spp) * l.K * itemSize
}

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

// collectionK derives the slot array's ranking size (first live slot; -1 →
// 0 when all slots are tombstones) and rejects mixed sizes.
func collectionK(slots []ranking.Ranking) (int, error) {
	k := -1
	for _, r := range slots {
		if r != nil {
			k = r.K()
			break
		}
	}
	if k < 0 {
		k = 0
	}
	for id, r := range slots {
		if r != nil && r.K() != k {
			return 0, fmt.Errorf("persist: slot %d has size %d, want %d: %w",
				id, r.K(), k, ranking.ErrSizeMismatch)
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

// WritePagedFile writes a single-file v3 snapshot at path atomically: into a
// temp file in path's directory, fsynced, then renamed over path and the
// directory fsynced. A failed write leaves any snapshot already at path as
// it was.
func WritePagedFile(path string, slots []ranking.Ranking) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after the rename
	if _, err := WritePagedTo(f, slots); err != nil {
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
	return fsyncDir(dir)
}

// PagedCollection is a loaded, fully verified v3 snapshot: the slot array
// is views over the snapshot's bytes in memory, with no per-ranking decode.
type PagedCollection struct {
	layout Layout
	slots  []ranking.Ranking
}

// Slots is the external-id slot array (nil entries are tombstones).
func (c *PagedCollection) Slots() []ranking.Ranking { return c.slots }

// Layout is the snapshot's page geometry.
func (c *PagedCollection) Layout() Layout { return c.layout }

// Close does nothing: a loaded collection holds no resource beyond memory.
//
// Deprecated: kept until benchmark/ stops calling it (ROADMAP 1(b)).
func (c *PagedCollection) Close() error { return nil }

// viewRanking reinterprets b as a k-item ranking without copying when the
// host is little-endian and b is 4-byte aligned (always true for page
// regions of a heap buffer); otherwise it decodes a heap copy.
func viewRanking(b []byte, k int) ranking.Ranking {
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%itemSize == 0 {
		return ranking.Ranking(unsafe.Slice((*ranking.Item)(unsafe.Pointer(&b[0])), k))
	}
	r := make(ranking.Ranking, k)
	for j := range r {
		r[j] = binary.LittleEndian.Uint32(b[j*itemSize:])
	}
	return r
}

// loadPaged checks every logical page against its write-time checksum —
// flag and arena pages alike, so a bit-flipped ranking is ErrCorrupt, never
// served — and then cuts the slot array out of the page region: flag pages
// say which slots are live, and each live slot becomes a view into its
// arena page. pageAt resolves a logical page to its bytes (identity offsets
// for single-file snapshots, through the page map for incremental
// checkpoints); crc is the logical page's recorded CRC-32C.
func loadPaged(l Layout, pageAt func(p int) []byte, crc func(p int) uint32) (*PagedCollection, error) {
	for p := 0; p < l.Pages(); p++ {
		if crc32.Checksum(pageAt(p), castagnoli) != crc(p) {
			return nil, fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, p)
		}
	}
	slots := make([]ranking.Ranking, l.Slots)
	stride := l.K * itemSize
	for fp := 0; fp < l.FlagPages(); fp++ {
		pg := pageAt(fp)
		lo := fp * l.PageSize
		hi := min(lo+l.PageSize, l.Slots)
		for s := lo; s < hi; s++ {
			switch pg[s-lo] {
			case 0:
			case 1:
				if l.K == 0 {
					return nil, fmt.Errorf("%w: live slot %d in a k=0 snapshot", ErrCorrupt, s)
				}
				ap, off := l.arenaPos(s)
				slots[s] = viewRanking(pageAt(ap)[off:off+stride], l.K)
			default:
				return nil, fmt.Errorf("%w: slot %d has flag %d", ErrCorrupt, s, pg[s-lo])
			}
		}
	}
	return &PagedCollection{layout: l, slots: slots}, nil
}

// parsePagedHeader validates the fixed header of a single-file snapshot
// against the actual byte count and returns the geometry. Nothing sized by
// a header field is allocated before this passes.
func parsePagedHeader(data []byte) (Layout, error) {
	le := binary.LittleEndian
	if len(data) >= 4 && le.Uint32(data) == legacyMagic {
		return Layout{}, ErrLegacyFormat
	}
	if len(data) < pagedHeaderSize+pagedTrailerLen {
		return Layout{}, fmt.Errorf("%w: %d bytes is shorter than a v3 header", ErrCorrupt, len(data))
	}
	if le.Uint32(data[0:]) != pagedMagic {
		return Layout{}, fmt.Errorf("%w: wrong magic", ErrBadFormat)
	}
	if v := le.Uint32(data[4:]); v != versionV3 {
		return Layout{}, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	if crc32.Checksum(data[:32], castagnoli) != le.Uint32(data[32:]) {
		return Layout{}, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	l := Layout{PageSize: int(le.Uint32(data[8:])), K: int(le.Uint32(data[12:]))}
	slots := le.Uint64(data[16:])
	pages := le.Uint32(data[24:])
	if hs := le.Uint32(data[28:]); hs != pagedHeaderSize {
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
	if int64(len(data)) != want {
		return Layout{}, fmt.Errorf("%w: file is %d bytes, geometry needs %d", ErrCorrupt, len(data), want)
	}
	return l, nil
}

// checkPagedFooter validates the trailer and the CRC table's own checksum,
// returning the table bytes.
func checkPagedFooter(data []byte, l Layout) ([]byte, error) {
	le := binary.LittleEndian
	tr := data[len(data)-pagedTrailerLen:]
	if le.Uint32(tr[8:]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	if int(le.Uint32(tr[4:])) != l.Pages()*4 {
		return nil, fmt.Errorf("%w: footer table length mismatch", ErrCorrupt)
	}
	table := data[len(data)-pagedTrailerLen-l.Pages()*4 : len(data)-pagedTrailerLen]
	if crc32.Checksum(table, castagnoli) != le.Uint32(tr[0:]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	return table, nil
}

// ReadPagedAll parses a complete single-file v3 snapshot from memory with
// every page checksum verified. The slots view data, which the caller must
// not modify afterwards.
func ReadPagedAll(data []byte) (*PagedCollection, error) {
	l, err := parsePagedHeader(data)
	if err != nil {
		return nil, err
	}
	table, err := checkPagedFooter(data, l)
	if err != nil {
		return nil, err
	}
	return loadPaged(l,
		func(p int) []byte {
			off := pagedHeaderSize + p*l.PageSize
			return data[off : off+l.PageSize]
		},
		func(p int) uint32 { return binary.LittleEndian.Uint32(table[p*4:]) })
}

// OpenPagedFile reads a single-file v3 snapshot whole and loads it with
// every page checksum verified.
func OpenPagedFile(path string) (*PagedCollection, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadPagedAll(data)
}
