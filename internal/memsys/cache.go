// Package memsys models the memory hierarchy of the simulated core: L1
// instruction and data caches, a unified L2, a fully-associative L1 TLB with
// a fixed-cost page walker, a degree-1 stride prefetcher, and a DDR3-like
// DRAM with per-bank open-row timing. The model is latency-oriented: an
// access returns the number of cycles until its data is available, and cache
// state (tags, LRU, dirty bits, open rows) evolves with each access.
package memsys

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size used throughout (Table I: 64 bytes).
const LineBytes = 64

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Assoc      int
	HitLatency uint64
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // higher = more recently used
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	cfg      CacheConfig
	setMask  uint64      // sets - 1
	setShift int         // log2(sets)
	lines    []cacheLine // sets × assoc
	lruClock uint64

	// Stats.
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Prefills   uint64
}

// NewCache validates the geometry and builds an empty cache.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes%(cfg.Assoc*LineBytes) != 0 {
		panic(fmt.Sprintf("memsys: bad cache geometry %+v", cfg))
	}
	sets := cfg.SizeBytes / (cfg.Assoc * LineBytes)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("memsys: %s: set count %d not a power of two", cfg.Name, sets))
	}
	return &Cache{
		cfg:      cfg,
		setMask:  uint64(sets - 1),
		setShift: bits.TrailingZeros(uint(sets)),
		lines:    make([]cacheLine, sets*cfg.Assoc),
	}
}

func (c *Cache) setOf(addr uint64) int {
	return int((addr / LineBytes) & c.setMask)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return (addr / LineBytes) >> c.setShift
}

// Lookup probes without modifying replacement state (used by tests and the
// prefetcher to avoid polluting LRU).
func (c *Cache) Lookup(addr uint64) bool {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[set*c.cfg.Assoc+w]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Access performs a demand access. It returns hit=true with the hit latency,
// or hit=false — in which case the caller must fetch the line from the next
// level and then call Fill. writebackNeeded reports whether filling will
// evict a dirty line (the caller decides whether to charge it).
func (c *Cache) Access(addr uint64, write bool) (hit bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[set*c.cfg.Assoc+w]
		if l.valid && l.tag == tag {
			c.lruClock++
			l.lru = c.lruClock
			if write {
				l.dirty = true
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs the line containing addr, evicting the LRU way. It returns
// true if the victim was dirty (a writeback to the next level). prefetch
// marks fills triggered by the prefetcher (counted separately).
func (c *Cache) Fill(addr uint64, write, prefetch bool) (writeback bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	victim := &c.lines[set*c.cfg.Assoc]
	for w := 1; w < c.cfg.Assoc; w++ {
		l := &c.lines[set*c.cfg.Assoc+w]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	writeback = victim.valid && victim.dirty
	if writeback {
		c.Writebacks++
	}
	c.lruClock++
	*victim = cacheLine{tag: tag, valid: true, dirty: write, lru: c.lruClock}
	if prefetch {
		c.Prefills++
	}
	return writeback
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }

// MissRate returns misses / accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.cfg.Name }
