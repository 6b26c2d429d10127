package emu

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.LoadWord64(0x1234560) != 0 {
		t.Error("unwritten memory not zero")
	}
	if m.LoadByte(99) != 0 {
		t.Error("unwritten byte not zero")
	}
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	f := func(addr uint64, val uint64) bool {
		addr &= 0x7FFF_FFF8 // aligned, bounded
		m := NewMemory()
		m.StoreWord64(addr, val)
		return m.LoadWord64(addr) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	// 8-byte value straddling a 4 KB page boundary (byte granularity path).
	addr := uint64(4096 - 4)
	m.StoreWord64(addr, 0x1122334455667788)
	if got := m.LoadWord64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.LoadByte(4095) != 0x55 || m.LoadByte(4096) != 0x44 {
		t.Errorf("byte split wrong: %#x %#x", m.LoadByte(4095), m.LoadByte(4096))
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	r := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 50)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<20)) &^ 7
		m.StoreWord64(addrs[i], uint64(i)*3)
	}
	c := m.Clone()
	for i, a := range addrs {
		if c.LoadWord64(a) != uint64(i)*3 {
			t.Fatalf("clone missing value at %#x", a)
		}
	}
	// Mutating the clone must not affect the original.
	c.StoreWord64(addrs[0], 999)
	if m.LoadWord64(addrs[0]) == 999 {
		t.Error("clone aliases original")
	}
}

func TestZeroValueMemoryUsable(t *testing.T) {
	var m Memory
	if m.LoadWord64(64) != 0 {
		t.Error("zero-value read")
	}
	m.StoreWord64(64, 42)
	if m.LoadWord64(64) != 42 {
		t.Error("zero-value write")
	}
}

func TestPageNumber(t *testing.T) {
	m := NewMemory()
	if m.PageNumber(4095) != 0 || m.PageNumber(4096) != 1 {
		t.Error("page arithmetic")
	}
	if PageSize() != 4096 {
		t.Errorf("page size = %d", PageSize())
	}
}

// BenchmarkLoadWord64 measures the single-page word fast path against the
// eight-byte-probe loop it replaced (simulated here via LoadByte), on the
// sequential same-page pattern the emulator's stack and array traffic shows.
func BenchmarkLoadWord64(b *testing.B) {
	m := NewMemory()
	for a := uint64(0); a < 1<<16; a += 8 {
		m.StoreWord64(a, a)
	}
	b.Run("fastpath", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += m.LoadWord64(uint64(i*8) & 0xFFF8)
		}
		benchSink = sink
	})
	b.Run("byteloop", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			addr := uint64(i*8) & 0xFFF8
			var v uint64
			for j := uint64(0); j < 8; j++ {
				v |= uint64(m.LoadByte(addr+j)) << (8 * j)
			}
			sink += v
		}
		benchSink = sink
	})
}

func BenchmarkStoreWord64(b *testing.B) {
	m := NewMemory()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.StoreWord64(uint64(i*8)&0xFFF8, uint64(i))
	}
}

var benchSink uint64

// TestWordFastPathStraddle pins the fallback: a word write straddling two
// pages must land byte-exactly where eight byte stores would put it.
func TestWordFastPathStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(2*4096 - 4)
	m.StoreWord64(addr, 0x1122334455667788)
	for i, want := range []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11} {
		if got := m.LoadByte(addr + uint64(i)); got != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got, want)
		}
	}
	if got := m.LoadWord64(addr); got != 0x1122334455667788 {
		t.Fatalf("straddling load = %#x", got)
	}
}

// TestWordFastPathCacheInvalidation: SetPageData must not leave a stale
// cached page pointer serving reads of replaced contents.
func TestWordFastPathCacheInvalidation(t *testing.T) {
	m := NewMemory()
	m.StoreWord64(0x1000, 0xAA) // caches page 1
	var page [4096]byte
	page[0] = 0xBB
	m.SetPageData(1, &page)
	if got := m.LoadWord64(0x1000); got != 0xBB {
		t.Fatalf("read after SetPageData = %#x, want 0xBB", got)
	}
}

// TestStoreBytesMatchesByteLoop: StoreBytes must leave the same page set
// and page contents as a StoreByte loop, for runs crossing page boundaries,
// ending on a page's last byte, starting on a page's first byte, spanning
// whole pages, and empty.
func TestStoreBytesMatchesByteLoop(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cases := []struct {
		addr uint64
		n    int
	}{
		{4096 - 3, 7},            // crosses one boundary
		{2*4096 - 16, 16},        // ends on the page's last byte
		{3 * 4096, 5},            // starts on a page's first byte
		{5*4096 + 100, 3 * 4096}, // spans whole pages
		{9*4096 - 1, 1},          // one byte, last of its page
		{12 * 4096, 0},           // empty: creates no page
	}
	for _, c := range cases {
		b := make([]byte, c.n)
		r.Read(b)
		got, want := NewMemory(), NewMemory()
		got.StoreBytes(c.addr, b)
		for i, v := range b {
			want.StoreByte(c.addr+uint64(i), v)
		}
		gp, wp := got.PageNumbers(), want.PageNumbers()
		if !slices.Equal(gp, wp) {
			t.Errorf("addr %#x len %d: pages %v, want %v", c.addr, c.n, gp, wp)
			continue
		}
		for _, pn := range wp {
			if *got.PageData(pn) != *want.PageData(pn) {
				t.Errorf("addr %#x len %d: page %d contents differ", c.addr, c.n, pn)
			}
		}
	}
}

// TestMemoryPageTableCoherent checks the page table against a byte-map
// model under random word and byte traffic. Pages whose numbers differ by a
// multiple of the table size share a slot and must evict each other without
// mixing data; words straddling two pages must split byte-exactly;
// SetPageData must replace a cached page and leave a conflicting cached page
// alone; a clone, or a memory restored from a snapshot, must never share a
// page the original has cached; and the zero-value Memory's empty slots
// (tag 0, nil page) must read as misses, page 0 included.
func TestMemoryPageTableCoherent(t *testing.T) {
	const stride = (1 << tableBits) * pageSize // same slot, next page that maps to it
	type model map[uint64]byte
	word := func(md model, addr uint64) uint64 {
		var v uint64
		for i := uint64(0); i < 8; i++ {
			v |= uint64(md[addr+i]) << (8 * i)
		}
		return v
	}
	check := func(what string, m *Memory, md model, addr uint64) {
		t.Helper()
		if got, want := m.LoadWord64(addr), word(md, addr); got != want {
			t.Fatalf("%s: LoadWord64(%#x) = %#x, want %#x", what, addr, got, want)
		}
		if got, want := m.LoadByte(addr), md[addr]; got != want {
			t.Fatalf("%s: LoadByte(%#x) = %#x, want %#x", what, addr, got, want)
		}
	}

	// Sites in pages 0, 64, 128 and 192 (one slot), their successors (the
	// next slot) and the words straddling each pair.
	var sites []uint64
	for k := uint64(0); k < 4; k++ {
		for _, off := range []uint64{0, 8, 2048, pageSize - 8, pageSize - 4, pageSize, pageSize + 16} {
			sites = append(sites, k*stride+off)
		}
	}
	var m Memory
	md := model{}
	if got := m.LoadWord64(0); got != 0 {
		t.Fatalf("zero-value LoadWord64(0) = %#x", got)
	}
	r := rand.New(rand.NewSource(21))
	traffic := func(what string, m *Memory, md model, n int) {
		for i := 0; i < n; i++ {
			addr := sites[r.Intn(len(sites))]
			switch r.Intn(3) {
			case 0:
				v := r.Uint64()
				m.StoreWord64(addr, v)
				for j := uint64(0); j < 8; j++ {
					md[addr+j] = byte(v >> (8 * j))
				}
			case 1:
				b := byte(r.Intn(256))
				m.StoreByte(addr+3, b)
				md[addr+3] = b
			default:
				check(what, m, md, addr)
			}
		}
		for _, addr := range sites {
			check(what, m, md, addr)
		}
	}
	traffic("interleaved", &m, md, 4000)

	// Replace page 64 while it holds the shared slot, then page 128 while
	// page 64 still does. The replaced page is read first, before any other
	// access can evict a stale pointer.
	for _, pn := range []uint64{64, 128} {
		var img [pageSize]byte
		r.Read(img[:])
		check("before SetPageData", &m, md, stride+8) // page 64 takes the slot
		m.SetPageData(pn, &img)
		for i, b := range img {
			md[pn*pageSize+uint64(i)] = b
		}
		check("after SetPageData", &m, md, pn*pageSize+8)
		for _, addr := range sites {
			check("after SetPageData", &m, md, addr)
		}
	}

	// A clone, and a memory restored from a snapshot, are taken while page
	// 64 sits in the original's table. A store through either side must
	// stay on that side, before and after random traffic on both.
	copies := []struct {
		name string
		copy func() *Memory
	}{
		{"clone", m.Clone},
		{"restored", func() *Memory {
			var s State
			s.Restore(&Snapshot{Mem: &m})
			return s.Mem
		}},
	}
	for _, cp := range copies {
		check("original", &m, md, stride+8) // page 64 takes the slot
		c, cmd := cp.copy(), model{}
		for k, v := range md {
			cmd[k] = v
		}
		for _, side := range []struct {
			m  *Memory
			md model
		}{{c, cmd}, {&m, md}} {
			v := r.Uint64()
			side.m.StoreWord64(stride+8, v)
			for j := uint64(0); j < 8; j++ {
				side.md[stride+8+j] = byte(v >> (8 * j))
			}
			check(cp.name, c, cmd, stride+8)
			check("original", &m, md, stride+8)
		}
		traffic(cp.name, c, cmd, 2000)
		traffic("original", &m, md, 2000)
		for _, addr := range sites {
			check(cp.name, c, cmd, addr)
		}
	}
}
