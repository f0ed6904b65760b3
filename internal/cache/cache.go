// Package cache implements the simulated memory hierarchy of paper Table 1:
// set-associative LRU caches (32KB 2-way L1I; 32KB 4-way, 6-cycle, 4-way
// word-interleaved L1D; 8MB 8-way, 30-cycle unified L2), a 128-entry TLB
// with 8KB pages, and a 300-cycle memory backstop. Timing (bank-port
// contention, miss latencies) is resolved with cycle calendars so the core
// model can ask "when does this access complete?" directly.
package cache

import (
	"hetwire/internal/sched"
)

// Config sizes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Latency   int // access latency in cycles (hit)
	Banks     int // word-interleaved banks (1 = unbanked)
	Ports     int // ports per bank
}

// Cache is a set-associative cache with true-LRU replacement and
// word-interleaved bank/port timing. Not safe for concurrent use.
type Cache struct {
	cfg  Config
	sets int
	// tags/lru are flat arrays indexed set*Assoc+way, so a 16K-set L2 is two
	// allocations instead of two per set.
	tags     []uint64 // 0 = invalid
	lru      []uint32 // larger = more recent
	lruClock uint32
	// setGen stamps each set with the generation its ways belong to. Reset
	// bumps gen instead of clearing the arrays; a set with an older stamp
	// is empty, and is cleared the first time Lookup touches it.
	setGen []uint32
	gen    uint32
	banks  []*sched.Calendar

	Accesses uint64
	Misses   uint64
}

// New builds a cache. Sizes must give a power-of-two number of sets. The
// bank-port calendars live on the given timeline (see sched.Calendar).
func New(cfg Config, tl *sched.Timeline) *Cache {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Assoc <= 0 {
		panic("cache: bad geometry")
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 1
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	c := &Cache{cfg: cfg, sets: sets}
	c.tags = make([]uint64, sets*cfg.Assoc)
	c.lru = make([]uint32, sets*cfg.Assoc)
	c.setGen = make([]uint32, sets)
	c.banks = make([]*sched.Calendar, cfg.Banks)
	for i := range c.banks {
		c.banks[i] = sched.NewCalendar(cfg.Ports, tl)
	}
	return c
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr / uint64(c.cfg.LineBytes)
	return int(line % uint64(c.sets)), line/uint64(c.sets) + 1 // +1: tag never 0
}

// Lookup performs the array access and fill: returns true on hit. On miss
// the line is installed (allocate-on-miss for both loads and stores; the
// paper's configuration is write-allocate by default in Simplescalar).
func (c *Cache) Lookup(addr uint64) bool {
	c.Accesses++
	set, tag := c.index(addr)
	base := set * c.cfg.Assoc
	if c.setGen[set] != c.gen {
		clear(c.tags[base : base+c.cfg.Assoc])
		clear(c.lru[base : base+c.cfg.Assoc])
		c.setGen[set] = c.gen
	}
	c.lruClock++
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[base+w] == tag {
			c.lru[base+w] = c.lruClock
			return true
		}
	}
	c.Misses++
	victim := 0
	for w := 1; w < c.cfg.Assoc; w++ {
		if c.lru[base+w] < c.lru[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = tag
	c.lru[base+victim] = c.lruClock
	return false
}

// Probe checks for presence without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	if c.setGen[set] != c.gen {
		return false
	}
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// bankOf maps an address to its word-interleaved bank (8-byte words).
func (c *Cache) bankOf(addr uint64) int {
	return int((addr >> 3) % uint64(len(c.banks)))
}

// ReservePort books a port on the address's bank at the earliest cycle >= at
// and returns the granted cycle. Callers add the cache latency themselves so
// that pipelined variants (the L-wire early-index pipeline) can overlap
// parts of the access.
func (c *Cache) ReservePort(addr uint64, at uint64) uint64 {
	return c.banks[c.bankOf(addr)].Reserve(at)
}

// ResetStats zeroes the hit/miss counters, keeping cache contents.
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }

// Reset restores the cache to its just-constructed state — cold arrays, idle
// bank ports, zero counters — reusing all storage. A reset cache behaves
// bit-identically to a freshly built one. It costs O(1): bumping the
// generation empties every set at once, and only when the generation wraps
// around to stamps that may still be in the arrays are they cleared.
func (c *Cache) Reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.tags)
		clear(c.lru)
		clear(c.setGen)
	}
	c.lruClock = 0
	for _, b := range c.banks {
		b.Reset()
	}
	c.Accesses, c.Misses = 0, 0
}

// MissRate returns misses/accesses so far (0 before any access).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// TLB models the 128-entry translation buffer (8KB pages) with LRU.
type TLB struct {
	entries  int
	pageBits uint
	tags     []uint64
	lru      []uint32
	clock    uint32

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a fully-associative-equivalent LRU TLB. (The paper notes
// the L-wire pipeline prefers a set-associative TLB; associativity affects
// only which index bits ride the L-wires, not hit/miss behaviour at this
// fidelity, so the timing model parameterises index bits separately.)
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("cache: TLB needs positive entries and power-of-two page size")
	}
	bits := uint(0)
	for 1<<bits < pageBytes {
		bits++
	}
	return &TLB{
		entries:  entries,
		pageBits: bits,
		tags:     make([]uint64, entries),
		lru:      make([]uint32, entries),
	}
}

// Lookup translates; returns true on TLB hit. Misses install the page.
func (t *TLB) Lookup(addr uint64) bool {
	t.Accesses++
	page := addr>>t.pageBits + 1
	t.clock++
	victim := 0
	for i, tag := range t.tags {
		if tag == page {
			t.lru[i] = t.clock
			return true
		}
		if t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.Misses++
	t.tags[victim] = page
	t.lru[victim] = t.clock
	return false
}

// ResetStats zeroes the TLB counters, keeping translations.
func (t *TLB) ResetStats() { t.Accesses, t.Misses = 0, 0 }

// Reset empties the TLB and zeroes its counters, reusing storage.
func (t *TLB) Reset() {
	clear(t.tags)
	clear(t.lru)
	t.clock = 0
	t.Accesses, t.Misses = 0, 0
}

// MissRate returns the TLB miss rate so far.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}

// Level identifies where an access was satisfied.
type Level uint8

const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "memory"
	}
	return "?"
}

// HierarchyConfig collects the Table 1 memory parameters.
type HierarchyConfig struct {
	L1I        Config
	L1D        Config
	L2         Config
	TLBEntries int
	PageBytes  int
	TLBPenalty int // cycles added on a TLB miss (page walk)
	MemLatency int // cycles for the first block from memory
}

// Hierarchy bundles the instruction cache, data cache, shared L2, TLB and
// memory timing.
type Hierarchy struct {
	cfg HierarchyConfig
	L1I *Cache
	L1D *Cache
	L2  *Cache
	TLB *TLB
}

// NewHierarchy builds the full memory system; its port calendars live on
// the given timeline (see sched.Calendar).
func NewHierarchy(cfg HierarchyConfig, tl *sched.Timeline) *Hierarchy {
	if cfg.TLBPenalty <= 0 {
		cfg.TLBPenalty = 30
	}
	return &Hierarchy{
		cfg: cfg,
		L1I: New(cfg.L1I, tl),
		L1D: New(cfg.L1D, tl),
		L2:  New(cfg.L2, tl),
		TLB: NewTLB(cfg.TLBEntries, cfg.PageBytes),
	}
}

// DataAccess models a load or store reaching the L1 data cache at cycle
// `start` (the cycle the full address is available at the cache). It
// reserves a bank port, walks the hierarchy on misses, and returns the cycle
// at which data is available and the satisfying level.
//
// indexReady is the cycle at which the cache's RAM indexing could begin; in
// the baseline pipeline it equals start, while the L-wire pipeline delivers
// the index bits early so RAM access overlaps the remaining address
// transfer (paper Section 4). The RAM-array portion of the L1 latency
// (all but one cycle) is charged from indexReady; the final tag-compare
// cycle is charged from start.
func (h *Hierarchy) DataAccess(addr uint64, indexReady, start uint64) (uint64, Level) {
	if indexReady > start {
		indexReady = start
	}
	port := h.L1D.ReservePort(addr, indexReady)
	ramDone := port + uint64(h.L1D.cfg.Latency-1)
	tlbDone := indexReady + 1 // TLB RAM lookup overlaps cache RAM access
	if !h.TLB.Lookup(addr) {
		tlbDone += uint64(h.cfg.TLBPenalty)
	}
	// Tag compare needs: RAM data, the translation, and the full address.
	done := maxU(maxU(ramDone, tlbDone), start) + 1
	if h.L1D.Lookup(addr) {
		return done, LevelL1
	}
	if h.L2.Lookup(addr) {
		return done + uint64(h.L2.cfg.Latency), LevelL2
	}
	return done + uint64(h.L2.cfg.Latency) + uint64(h.cfg.MemLatency), LevelMem
}

// ResetStats zeroes hit/miss counters across the hierarchy.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.TLB.ResetStats()
}

// Reset restores the whole hierarchy to its just-constructed (cold) state,
// reusing all storage.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.TLB.Reset()
}

// FetchAccess models an instruction fetch at cycle start; returns completion
// cycle and level.
func (h *Hierarchy) FetchAccess(addr uint64, start uint64) (uint64, Level) {
	done := start + uint64(h.L1I.cfg.Latency)
	if h.L1I.Lookup(addr) {
		return done, LevelL1
	}
	if h.L2.Lookup(addr) {
		return done + uint64(h.L2.cfg.Latency), LevelL2
	}
	return done + uint64(h.L2.cfg.Latency) + uint64(h.cfg.MemLatency), LevelMem
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
