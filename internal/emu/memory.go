package emu

import (
	"encoding/binary"
	"sort"
)

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	// tableBits sizes the page table. Over the 33 kernels at scale 4, 64
	// slots miss on 0.7 % of loads and stores, where a single cached page
	// missed on 54 % (DESIGN.md §14).
	tableBits = 6
	tableMask = 1<<tableBits - 1
)

// Memory is a sparse, paged, little-endian 64-bit byte-addressable memory.
// Unwritten locations read as zero. The zero value is ready to use.
//
// The pages map is the source of truth. In front of it sits a direct-mapped
// table of page pointers indexed by the low bits of the page number, so
// accesses that rotate among a few pages (a stack frame and several array or
// list walks, which a single cached page kept evicting) skip the map probe.
// LoadWord64, StoreWord64 and the batch interpreter (State.run) test the
// table inline and fall back to the map on a miss.
type Memory struct {
	pages map[uint64]*[pageSize]byte

	// table[pn&tableMask] caches page pn when its tag is pn. An empty slot
	// holds a nil page, which every caller takes for a miss, so the zero
	// value needs no set-up. fill enters pages and SetPageData replaces a
	// cached pointer; pages are never removed from the map, so nothing else
	// can leave an entry stale.
	table [1 << tableBits]pageEntry
}

type pageEntry struct {
	tag  uint64
	page *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

// cached returns the table's pointer to the page holding addr, or nil on a
// miss. It is small enough to inline into every caller.
func (m *Memory) cached(addr uint64) *[pageSize]byte {
	pn := addr >> pageBits
	if e := &m.table[pn&tableMask]; e.tag == pn {
		return e.page
	}
	return nil
}

// page returns the page holding addr, creating it when create is set; nil
// means the page was never written and create is unset.
func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	if p := m.cached(addr); p != nil {
		return p
	}
	return m.fill(addr, create)
}

// fill looks addr's page up in the map, creating it when create is set, and
// enters a page it finds or creates into the table.
func (m *Memory) fill(addr uint64, create bool) *[pageSize]byte {
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint64]*[pageSize]byte)
	}
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	m.table[pn&tableMask] = pageEntry{tag: pn, page: p}
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

// LoadWord64 loads the 8-byte little-endian word at addr. A word inside one
// page is a table probe and a single slice read, with no call unless the
// table misses; page-straddling words fall back to the byte loop.
func (m *Memory) LoadWord64(addr uint64) uint64 {
	off := addr & pageMask
	if off <= pageSize-8 {
		p := m.cached(addr)
		if p == nil {
			if p = m.fill(addr, false); p == nil {
				return 0
			}
		}
		return binary.LittleEndian.Uint64(p[off : off+8])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.LoadByte(addr+i)) << (8 * i)
	}
	return v
}

// StoreWord64 stores an 8-byte little-endian word at addr (see LoadWord64).
func (m *Memory) StoreWord64(addr uint64, v uint64) {
	off := addr & pageMask
	if off <= pageSize-8 {
		p := m.cached(addr)
		if p == nil {
			p = m.fill(addr, true)
		}
		binary.LittleEndian.PutUint64(p[off:off+8], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.StoreByte(addr+i, byte(v>>(8*i)))
	}
}

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
	if e := &m.table[pn&tableMask]; e.tag == pn {
		e.page = np
	}
}
