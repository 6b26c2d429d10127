package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 4096, Assoc: 2, HitLatency: 1})
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x1000, false, false)
	if !c.Access(0x1000, false) {
		t.Error("access after fill missed")
	}
	if !c.Access(0x103F, false) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040, false) {
		t.Error("next-line access hit without fill")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 4096/2/64 = 32 sets; addresses 32 lines apart share a set.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 4096, Assoc: 2, HitLatency: 1})
	setStride := uint64(32 * LineBytes)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Fill(a, false, false)
	c.Access(b, false)
	c.Fill(b, false, false)
	c.Access(a, false) // touch a so b is LRU
	c.Access(d, false)
	c.Fill(d, false, false) // evicts b
	if !c.Access(a, false) {
		t.Error("a should still be resident")
	}
	if c.Access(b, false) {
		t.Error("b should have been evicted")
	}
}

func TestCacheWritebackOnDirtyEvict(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 128, Assoc: 1, HitLatency: 1})
	// 2 sets; same-set addresses are 128 bytes apart.
	c.Access(0, true)
	c.Fill(0, true, false)
	c.Access(128, false)
	if wb := c.Fill(128, false, false); !wb {
		t.Error("evicting dirty line must report writeback")
	}
	c.Access(256, false)
	if wb := c.Fill(256, false, false); wb {
		t.Error("evicting clean line must not report writeback")
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Writebacks)
	}
}

func TestCacheStatsAndMissRate(t *testing.T) {
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 4096, Assoc: 2, HitLatency: 1})
	c.Access(0, false)
	c.Fill(0, false, false)
	c.Access(0, false)
	c.Access(0, false)
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits, c.Misses)
	}
	if mr := c.MissRate(); mr < 0.32 || mr > 0.34 {
		t.Errorf("miss rate = %f, want 1/3", mr)
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Name: "zero", SizeBytes: 0, Assoc: 1},
		{Name: "badassoc", SizeBytes: 4096, Assoc: 0},
		{Name: "nonpow2", SizeBytes: 3 * 64 * 3, Assoc: 1}, // 9 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestDRAMRowHitsFasterThanConflicts(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	first := d.Access(0, 0)
	hit := d.Access(64, first)                  // same row
	conflict := d.Access(16*8192*64, first+hit) // same bank, different row (banks*rowsize stride)
	if hit >= first {
		t.Errorf("open-row hit (%d) not faster than activate (%d)", hit, first)
	}
	if conflict <= hit {
		t.Errorf("row conflict (%d) not slower than row hit (%d)", conflict, hit)
	}
	if d.RowHits != 1 {
		t.Errorf("row hits = %d, want 1", d.RowHits)
	}
}

func TestDRAMBankQueueing(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	l1 := d.Access(0, 100)
	// Immediate second access to the same bank must queue behind the first.
	l2 := d.Access(64, 100)
	if l2 <= l1 {
		t.Errorf("queued access latency %d not greater than first %d", l2, l1)
	}
}

func TestTLBHitMissAndLRU(t *testing.T) {
	tl := NewTLB(TLBConfig{Entries: 2, PageBytes: 4096, WalkLatency: 30})
	if extra, miss := tl.Access(0x1000); !miss || extra != 30 {
		t.Errorf("cold access: extra=%d miss=%v", extra, miss)
	}
	if extra, miss := tl.Access(0x1008); miss || extra != 0 {
		t.Errorf("same page: extra=%d miss=%v", extra, miss)
	}
	tl.Access(0x2000)
	tl.Access(0x1000) // touch page 1 so page 2 is LRU
	tl.Access(0x3000) // evicts page 2
	if _, miss := tl.Access(0x2000); !miss {
		t.Error("page 2 should have been evicted")
	}
	tl.Flush()
	if _, miss := tl.Access(0x1000); !miss {
		t.Error("flush did not invalidate")
	}
}

// TestTLBConfigValidation rejects TLBs the page-number shift cannot serve,
// as NewCache rejects a set count that is not a power of two, and checks
// that a valid page size other than the default splits pages where it
// should.
func TestTLBConfigValidation(t *testing.T) {
	for _, cfg := range []TLBConfig{
		{Entries: 0, PageBytes: 4096},
		{Entries: 4, PageBytes: 0},
		{Entries: 4, PageBytes: 3000},
		{Entries: 4, PageBytes: 4096 + 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewTLB(cfg)
		}()
	}
	tl := NewTLB(TLBConfig{Entries: 4, PageBytes: 8192, WalkLatency: 30})
	tl.Access(0x2000)
	if _, miss := tl.Access(0x3ff8); miss {
		t.Error("0x3ff8 missed on the 8 KiB page holding 0x2000")
	}
	if _, miss := tl.Access(0x4000); !miss {
		t.Error("0x4000 hit, but it starts the next 8 KiB page")
	}
}

func TestStridePrefetcherDetectsStreams(t *testing.T) {
	p := NewStridePrefetcher(16, 1)
	pc := uint64(0x1000)
	var got []uint64
	for i := uint64(0); i < 16; i++ {
		got = append(got, p.Observe(pc, 0x8000+i*64)...)
	}
	if len(got) < 10 {
		t.Fatalf("prefetcher issued %d prefetches on a perfect stream, want >= 10", len(got))
	}
	// Prefetches must run ahead of the stream by one stride.
	if got[0]%64 != 0 && got[0] == 0 {
		t.Errorf("bad prefetch address %#x", got[0])
	}
	// Irregular stream: no prefetches.
	p2 := NewStridePrefetcher(16, 1)
	r := rand.New(rand.NewSource(1))
	count := 0
	for i := 0; i < 64; i++ {
		count += len(p2.Observe(pc, uint64(r.Intn(1<<20))*8))
	}
	if count > 4 {
		t.Errorf("prefetcher issued %d prefetches on random stream", count)
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := New(DefaultConfig())
	// Cold: L1 miss + L2 miss + DRAM.
	cold, tlbMiss := h.DataAccess(0x1000, 0x20_0000, false, 0)
	if !tlbMiss {
		t.Error("first access should miss TLB")
	}
	warm, _ := h.DataAccess(0x1000, 0x20_0000, false, 100)
	if warm != h.L1D.HitLatency() {
		t.Errorf("warm hit latency = %d, want %d", warm, h.L1D.HitLatency())
	}
	if cold < 40 {
		t.Errorf("cold access latency = %d, suspiciously fast", cold)
	}
	// L2 hit (evict from L1 by conflict is hard to force; use a second line
	// that's in L2 but not L1 — fill via an access then flush L1 by filling
	// conflicting lines).
	if cold <= warm {
		t.Error("cold access not slower than warm")
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := New(DefaultConfig())
	cold := h.FetchLatency(0x1000, 0)
	warm := h.FetchLatency(0x1004, 10)
	if warm != h.L1I.HitLatency() {
		t.Errorf("warm fetch latency = %d, want %d", warm, h.L1I.HitLatency())
	}
	if cold <= warm {
		t.Error("cold fetch not slower than warm fetch")
	}
}

func TestHierarchyPrefetchHidesStreamLatency(t *testing.T) {
	mkSum := func(pf int) (miss uint64) {
		cfg := DefaultConfig()
		cfg.PrefetchDegree = pf
		h := New(cfg)
		for i := uint64(0); i < 512; i++ {
			h.DataAccess(0x1000, 0x40_0000+i*8, false, i*4)
		}
		return h.L1D.Misses
	}
	with := mkSum(1)
	without := mkSum(0)
	if with >= without {
		t.Errorf("L1D misses with prefetch (%d) not below without (%d)", with, without)
	}
}

// Property: cache state is consistent — an address just filled always hits,
// and total accesses always equals hits+misses.
func TestCacheProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCache(CacheConfig{Name: "q", SizeBytes: 2048, Assoc: 2, HitLatency: 1})
		n := uint64(0)
		for i := 0; i < 500; i++ {
			addr := uint64(r.Intn(1 << 14))
			write := r.Intn(2) == 0
			n++
			if !c.Access(addr, write) {
				c.Fill(addr, write, false)
				if !c.Lookup(addr) {
					return false
				}
			}
		}
		return c.Hits+c.Misses == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
