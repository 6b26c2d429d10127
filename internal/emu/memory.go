package emu

import (
	"encoding/binary"
	"sort"
)

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse, paged, little-endian 64-bit byte-addressable memory.
// Unwritten locations read as zero. The zero value is ready to use.
//
// The hot word-granularity accessors (LoadWord64/StoreWord64) keep a
// one-entry page cache: workloads touch the same page many times in a row
// (stack frames, array walks), so most accesses skip the map probe entirely.
type Memory struct {
	pages map[uint64]*[pageSize]byte

	// Last-page pointer cache. lastPN is the page number lastPage serves;
	// lastPage == nil means the cache is empty. Pages are never removed
	// from the map, so a cached pointer can only go stale via Restore,
	// which resets it.
	lastPN   uint64
	lastPage *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// StoreBytes stores b starting at addr, one page-sized copy at a time. It
// creates exactly the pages a StoreByte loop over b would.
func (m *Memory) StoreBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr, true)[addr&pageMask:], b)
		addr += uint64(n)
		b = b[n:]
	}
}

// LoadWord64 loads the 8-byte little-endian word at addr through the
// single-page fast path: when the word lies inside the cached page it is one
// bounds-checked slice read, with no map probe. Page-straddling accesses
// fall back to the byte loop.
func (m *Memory) LoadWord64(addr uint64) uint64 {
	off := addr & pageMask
	if off <= pageSize-8 {
		if addr>>pageBits == m.lastPN && m.lastPage != nil {
			return binary.LittleEndian.Uint64(m.lastPage[off : off+8])
		}
		if p := m.page(addr, false); p != nil {
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
		return 0
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.LoadByte(addr+i)) << (8 * i)
	}
	return v
}

// StoreWord64 stores an 8-byte little-endian word at addr through the
// single-page fast path (see LoadWord64).
func (m *Memory) StoreWord64(addr uint64, v uint64) {
	off := addr & pageMask
	if off <= pageSize-8 {
		if addr>>pageBits == m.lastPN && m.lastPage != nil {
			binary.LittleEndian.PutUint64(m.lastPage[off:off+8], v)
			return
		}
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.StoreByte(addr+i, byte(v>>(8*i)))
	}
}

// Read64 loads the 8-byte little-endian word at addr. The address must be
// 8-byte aligned; callers enforce alignment (the emulator faults first).
func (m *Memory) Read64(addr uint64) uint64 { return m.LoadWord64(addr) }

// Write64 stores an 8-byte little-endian word at addr.
func (m *Memory) Write64(addr uint64, v uint64) { m.StoreWord64(addr, v) }

// PageNumber returns the page index containing addr (used by the demand-
// paging fault model in the timing simulator).
func (m *Memory) PageNumber(addr uint64) uint64 { return addr >> pageBits }

// PageSize returns the page size in bytes.
func PageSize() uint64 { return pageSize }

// Clone returns a deep copy of the memory (used by differential tests and
// checkpoints).
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for pn, p := range m.pages {
		np := new([pageSize]byte)
		*np = *p
		c.pages[pn] = np
	}
	return c
}

// PageNumbers returns the numbers of every allocated page in ascending
// order — the deterministic iteration order the checkpoint format needs.
func (m *Memory) PageNumbers() []uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// PageData returns the raw 4 KiB backing array of page pn (nil when the page
// was never written). Callers must treat it as read-only.
func (m *Memory) PageData(pn uint64) *[pageSize]byte {
	if m.pages == nil {
		return nil
	}
	return m.pages[pn]
}

// SetPageData installs a full page image at page pn, replacing any prior
// contents. The checkpoint loader uses it to rebuild a memory without going
// through 4096 byte stores.
func (m *Memory) SetPageData(pn uint64, data *[pageSize]byte) {
	if m.pages == nil {
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	np := new([pageSize]byte)
	*np = *data
	m.pages[pn] = np
	m.lastPN, m.lastPage = 0, nil
}
