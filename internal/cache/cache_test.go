package cache

import (
	"testing"
	"testing/quick"

	"hetwire/internal/sched"
	"hetwire/internal/xrand"
)

func smallCache() *Cache {
	return New(Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2, Latency: 6, Banks: 4, Ports: 1}, nil)
}

func TestLookupMissThenHit(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Lookup(0x1000) {
		t.Error("second access missed")
	}
	if !c.Lookup(0x1038) { // same 64-byte line
		t.Error("same-line access missed")
	}
	if c.Misses != 1 || c.Accesses != 3 {
		t.Errorf("misses/accesses = %d/%d, want 1/3", c.Misses, c.Accesses)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache() // 8 sets, 2 ways
	// Three addresses mapping to set 0: line numbers 0, 8, 16.
	a, b, x := uint64(0), uint64(8*64), uint64(16*64)
	c.Lookup(a)
	c.Lookup(b)
	c.Lookup(a) // a is MRU
	c.Lookup(x) // evicts b
	if !c.Probe(a) {
		t.Error("MRU line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line survived")
	}
	if !c.Probe(x) {
		t.Error("newly installed line absent")
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := smallCache()
	c.Lookup(0)       // set 0 way A
	c.Lookup(8 * 64)  // set 0 way B (B is MRU)
	c.Probe(0)        // must NOT refresh A's recency
	c.Lookup(16 * 64) // evicts LRU, which must still be A
	if c.Probe(0) {
		t.Error("Probe refreshed LRU state")
	}
	if !c.Probe(8 * 64) {
		t.Error("MRU line was evicted instead")
	}
}

// TestWorkingSetFitsCacheHasLowMissRate: property-style check of the
// locality behaviour the workload generator relies on.
func TestWorkingSetFitsCacheHasLowMissRate(t *testing.T) {
	c := New(Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 4, Latency: 6}, nil)
	src := xrand.New(1)
	for i := 0; i < 100000; i++ {
		addr := uint64(src.Intn(16 * 1024)) // 16KB working set in 32KB cache
		c.Lookup(addr)
	}
	if mr := c.MissRate(); mr > 0.02 {
		t.Errorf("fitting working set has miss rate %.3f, want < 0.02", mr)
	}

	big := New(Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 4, Latency: 6}, nil)
	for i := 0; i < 100000; i++ {
		addr := uint64(src.Intn(64 * 1024 * 1024)) // 64MB stream
		big.Lookup(addr)
	}
	if mr := big.MissRate(); mr < 0.5 {
		t.Errorf("thrashing working set has miss rate %.3f, want > 0.5", mr)
	}
}

func TestBankPortContention(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2, Latency: 6, Banks: 4, Ports: 1}, nil)
	// Same bank (same word offset pattern): three requests at cycle 10.
	addr := uint64(0x40) // bank = (0x40>>3)%4 = 0
	if got := c.ReservePort(addr, 10); got != 10 {
		t.Fatalf("first port grant at %d", got)
	}
	if got := c.ReservePort(addr+32, 10); got != 11 { // 0x60>>3=12, %4=0: same bank
		t.Errorf("same-bank second grant at %d, want 11", got)
	}
	// Different bank is free at cycle 10.
	if got := c.ReservePort(addr+8, 10); got != 10 {
		t.Errorf("different-bank grant at %d, want 10", got)
	}
}

func TestTLBHitMissAndLRU(t *testing.T) {
	tlb := NewTLB(2, 8192)
	if tlb.Lookup(0x0000) {
		t.Error("cold TLB hit")
	}
	if !tlb.Lookup(0x1000) { // same 8KB page
		t.Error("same-page TLB miss")
	}
	tlb.Lookup(0x4000) // second page
	tlb.Lookup(0x0000) // page 0 is MRU
	tlb.Lookup(0x8000) // third page evicts page 1 (0x4000)
	if !tlb.Lookup(0x0000) {
		t.Error("MRU page evicted")
	}
	if tlb.Lookup(0x4000) {
		t.Error("LRU page survived")
	}
}

func newTestHierarchy() *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		L1I:        Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 2, Latency: 1},
		L1D:        Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 4, Latency: 6, Banks: 4, Ports: 1},
		L2:         Config{SizeBytes: 8 * 1024 * 1024, LineBytes: 64, Assoc: 8, Latency: 30},
		TLBEntries: 128,
		PageBytes:  8192,
		TLBPenalty: 30,
		MemLatency: 300,
	}, nil)
}

// TestAttachMovesPortCalendars: after Attach, every bank-port calendar of
// every cache in the hierarchy checks its bookings against the new
// timeline's floor and records its faults there.
func TestAttachMovesPortCalendars(t *testing.T) {
	h := newTestHierarchy()
	var tl sched.Timeline
	h.Attach(&tl)
	tl.Floor = 100
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		for b := range c.banks {
			tl.Fault = nil
			c.ReservePort(uint64(8*b), 10) // 8-byte words interleave the banks
			if tl.Fault == nil || !tl.Fault.BelowFloor {
				t.Errorf("%d KiB cache, bank %d: a booking below the attached floor recorded %v", c.cfg.SizeBytes>>10, b, tl.Fault)
			}
		}
	}
}

// TestDataAccessLatencies: an L1 hit (after warming TLB and cache) takes the
// configured 6 cycles; L2 and memory add their latencies.
func TestDataAccessLatencies(t *testing.T) {
	h := newTestHierarchy()
	const addr = 0x10000

	// Cold access: TLB miss + L1 miss + L2 miss -> memory.
	done, lvl := h.DataAccess(addr, 100, 100)
	if lvl != LevelMem {
		t.Fatalf("cold access level = %v, want memory", lvl)
	}
	coldLat := done - 100
	if coldLat < 300 {
		t.Errorf("cold access latency %d < memory latency", coldLat)
	}

	// Warm access: everything hits; latency = L1 latency.
	done, lvl = h.DataAccess(addr, 200, 200)
	if lvl != LevelL1 {
		t.Fatalf("warm access level = %v, want L1", lvl)
	}
	if lat := done - 200; lat != 6 {
		t.Errorf("L1 hit latency = %d, want 6", lat)
	}

	// Evict from L1 but not L2: stream over L1-conflicting lines.
	for i := uint64(1); i <= 8; i++ {
		h.DataAccess(addr+i*32*1024, 300+i*20, 300+i*20)
	}
	done, lvl = h.DataAccess(addr, 1000, 1000)
	if lvl != LevelL2 {
		t.Fatalf("level = %v, want L2", lvl)
	}
	if lat := done - 1000; lat != 6+30 {
		t.Errorf("L2 hit latency = %d, want 36", lat)
	}
}

// TestEarlyIndexOverlapsRAMAccess is the paper's accelerated cache pipeline:
// if the index bits arrive early (indexReady < start), the RAM access
// overlaps the remaining address transfer and only the final tag-compare
// cycle is serialized after the full address arrives.
func TestEarlyIndexOverlapsRAMAccess(t *testing.T) {
	h := newTestHierarchy()
	const addr = 0x20000
	h.DataAccess(addr, 10, 10) // warm TLB + caches

	// Baseline: full address at cycle 100, index at the same time.
	doneBase, _ := h.DataAccess(addr, 100, 100)
	if lat := doneBase - 100; lat != 6 {
		t.Fatalf("baseline latency = %d, want 6", lat)
	}

	// L-wire pipeline: index available at 95, full address at 100. The
	// 5-cycle RAM access (latency-1) runs 95..100 and only tag compare
	// remains: total completes at 101.
	doneEarly, _ := h.DataAccess(addr, 195, 200)
	if lat := doneEarly - 200; lat != 1 {
		t.Errorf("early-index latency beyond full-address arrival = %d, want 1", lat)
	}

	// indexReady later than start must be clamped (never helps).
	doneClamped, _ := h.DataAccess(addr, 400, 300)
	if doneClamped < 300 {
		t.Error("clamped access completed before the address arrived")
	}
}

// TestFetchAccess covers the instruction path.
func TestFetchAccess(t *testing.T) {
	h := newTestHierarchy()
	done, lvl := h.FetchAccess(0x400000, 50)
	if lvl != LevelMem || done <= 50 {
		t.Fatalf("cold fetch = (%d, %v)", done, lvl)
	}
	done, lvl = h.FetchAccess(0x400000, 60)
	if lvl != LevelL1 || done != 61 {
		t.Errorf("warm fetch = (%d, %v), want (61, L1)", done, lvl)
	}
}

// TestDataAccessMonotoneInStart: property — completion time is monotone in
// the address-arrival time for hit accesses.
func TestDataAccessMonotoneInStart(t *testing.T) {
	h := newTestHierarchy()
	h.DataAccess(0x5000, 1, 1)
	f := func(s8 uint8) bool {
		s := 1000 + uint64(s8)
		d1, _ := h.DataAccess(0x5000, s, s)
		d2, _ := h.DataAccess(0x5000, s+10, s+10)
		return d2 >= d1 && d1 > s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "memory" {
		t.Error("level names wrong")
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-power-of-two sets", func() {
		New(Config{SizeBytes: 3000, LineBytes: 64, Assoc: 2, Latency: 1}, nil)
	})
	mustPanic("zero-size TLB", func() { NewTLB(0, 8192) })
	mustPanic("non-power-of-two page", func() { NewTLB(16, 5000) })
}
