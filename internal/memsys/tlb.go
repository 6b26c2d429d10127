package memsys

import (
	"fmt"
	"math/bits"
)

// TLBConfig sizes the fully-associative L1 TLB (Table I: 48 entries) and the
// page-walk cost charged on a miss.
type TLBConfig struct {
	Entries     int
	PageBytes   uint64
	WalkLatency uint64
}

// DefaultTLBConfig mirrors Table I with a 30-cycle hardware walk.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 48, PageBytes: 4096, WalkLatency: 30}
}

type tlbEntry struct {
	page  uint64
	valid bool
	lru   uint64
}

// TLB is a fully-associative, LRU translation buffer. It models latency
// only; the simulated machine is physically addressed.
type TLB struct {
	cfg       TLBConfig
	pageShift int // log2(PageBytes)
	entries   []tlbEntry
	lruClock  uint64

	Hits   uint64
	Misses uint64
}

// NewTLB builds an empty TLB. The page size must be a power of two.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Entries <= 0 || cfg.PageBytes == 0 {
		panic("memsys: bad TLB config")
	}
	if cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		panic(fmt.Sprintf("memsys: TLB page size %d not a power of two", cfg.PageBytes))
	}
	return &TLB{
		cfg:       cfg,
		pageShift: bits.TrailingZeros64(cfg.PageBytes),
		entries:   make([]tlbEntry, cfg.Entries),
	}
}

// Access translates addr, returning the extra latency (0 on a hit, the walk
// latency on a miss) and whether it missed.
func (t *TLB) Access(addr uint64) (extra uint64, miss bool) {
	page := addr >> t.pageShift
	t.lruClock++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lru = t.lruClock
			t.Hits++
			return 0, false
		}
	}
	t.Misses++
	victim := &t.entries[0]
	for i := 1; i < len(t.entries); i++ {
		e := &t.entries[i]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = tlbEntry{page: page, valid: true, lru: t.lruClock}
	return t.cfg.WalkLatency, true
}

// PageBytes returns the configured page size.
func (t *TLB) PageBytes() uint64 { return t.cfg.PageBytes }
