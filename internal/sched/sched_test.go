package sched

import (
	"testing"
	"testing/quick"

	"hetwire/internal/xrand"
)

func TestCalendarSerializesOverCapacity(t *testing.T) {
	c := NewCalendar(1, nil)
	got := []uint64{c.Reserve(10), c.Reserve(10), c.Reserve(10)}
	want := []uint64{10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reservation %d at cycle %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCalendarCapacityTwo(t *testing.T) {
	c := NewCalendar(2, nil)
	if a, b := c.Reserve(5), c.Reserve(5); a != 5 || b != 5 {
		t.Errorf("two reservations should share cycle 5, got %d and %d", a, b)
	}
	if x := c.Reserve(5); x != 6 {
		t.Errorf("third reservation should spill to cycle 6, got %d", x)
	}
}

func TestCalendarOutOfOrderRequests(t *testing.T) {
	c := NewCalendar(1, nil)
	if x := c.Reserve(100); x != 100 {
		t.Fatalf("got %d", x)
	}
	// An earlier request must still find cycle 50 free.
	if x := c.Reserve(50); x != 50 {
		t.Errorf("earlier free cycle not granted: got %d, want 50", x)
	}
}

func TestCalendarSlidesWithoutLosingCapacityInvariant(t *testing.T) {
	tl := new(Timeline)
	c := NewCalendar(1, tl)
	src := xrand.New(42)
	seen := make(map[uint64]int)
	cycle := uint64(0)
	for i := 0; i < 50000; i++ {
		cycle += uint64(src.Intn(3))
		tl.Floor = cycle
		got := c.Reserve(cycle)
		seen[got]++
		if seen[got] > 1 {
			t.Fatalf("cycle %d double-booked on a capacity-1 calendar", got)
		}
	}
	if f := tl.Fault; f != nil {
		t.Errorf("calendar fault on a floor-respecting pattern: %v", f)
	}
	if c.Cells() != minCells {
		t.Errorf("ring grew to %d cells; the live span never exceeds %d cycles", c.Cells(), minCells)
	}
}

// TestCalendarFarJump: a booking far ahead of the floor reuses a dead cell
// in place, while one that collides with a live cycle doubles the ring
// rather than merging the two.
func TestCalendarFarJump(t *testing.T) {
	tl := new(Timeline)
	c := NewCalendar(1, tl)
	c.Reserve(0)
	tl.Floor = 1 << 30 // cycle 0 is dead from here on
	if x := c.Reserve(1 << 30); x != 1<<30 {
		t.Errorf("far-future reservation: got %d", x)
	}
	if c.Cells() != minCells {
		t.Errorf("booking over a dead cell grew the ring to %d cells", c.Cells())
	}
	// 1<<30 + minCells shares a cell with the live 1<<30: the ring grows and
	// both cycles keep their bookings.
	if x := c.Reserve(1<<30 + minCells); x != 1<<30+minCells {
		t.Errorf("booking on a live cell's twin: got %d", x)
	}
	if c.Cells() != 2*minCells {
		t.Errorf("ring has %d cells after one live collision, want %d", c.Cells(), 2*minCells)
	}
	if c.Load(1<<30) != 1 || c.Load(1<<30+minCells) != 1 {
		t.Errorf("loads after growth: %d and %d, want 1 and 1", c.Load(1<<30), c.Load(1<<30+minCells))
	}
	if x := c.Reserve(1 << 30); x != 1<<30+1 {
		t.Errorf("full cycle after growth: got %d, want %d", x, 1<<30+1)
	}
	if f := tl.Fault; f != nil {
		t.Errorf("unexpected fault: %v", f)
	}
}

// TestCalendarNeverExceedsCapacity is the core property: for any request
// sequence whose live span fits the largest ring, the per-cycle booking
// count never exceeds capacity.
func TestCalendarNeverExceedsCapacity(t *testing.T) {
	f := func(capRaw uint8, reqs []uint16) bool {
		capacity := int(capRaw%4) + 1
		tl := new(Timeline)
		c := NewCalendar(capacity, tl)
		counts := make(map[uint64]int)
		for _, r := range reqs {
			at := uint64(r) % (MaxCells / 2) // floor 0: every booking stays live
			got := c.Reserve(at)
			counts[got]++
			if counts[got] > capacity {
				return false
			}
			if got < at {
				return false // must never schedule before the request
			}
		}
		return tl.Fault == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeapUnderCapacityIsImmediate(t *testing.T) {
	h := NewHeap(3)
	for i := 0; i < 3; i++ {
		if at := h.Acquire(5); at != 5 {
			t.Fatalf("acquire %d delayed to %d", i, at)
		}
		h.Commit(100)
	}
	// Pool full with release=100: next acquire at 5 must wait until 100.
	if at := h.Acquire(5); at != 100 {
		t.Errorf("full pool acquire = %d, want 100", at)
	}
	// But a request after the release time proceeds immediately.
	if at := h.Acquire(150); at != 150 {
		t.Errorf("post-release acquire = %d, want 150", at)
	}
}

func TestHeapEvictsEarliestRelease(t *testing.T) {
	h := NewHeap(2)
	h.Commit(10)
	h.Commit(20)
	// Full; earliest release is 10.
	if at := h.Acquire(0); at != 10 {
		t.Fatalf("acquire = %d, want 10", at)
	}
	h.Commit(30) // reuses the release-10 slot
	if at := h.Acquire(0); at != 20 {
		t.Errorf("acquire = %d, want 20 (the remaining earliest)", at)
	}
}

func TestHeapFree(t *testing.T) {
	h := NewHeap(4)
	h.Commit(10)
	h.Commit(20)
	if f := h.Free(5); f != 2 { // both slots still held at cycle 5
		t.Errorf("Free(5) = %d, want 2", f)
	}
	if f := h.Free(15); f != 3 { // the release-10 slot is free again
		t.Errorf("Free(15) = %d, want 3", f)
	}
	if f := h.Free(25); f != 4 { // everything released
		t.Errorf("Free(25) = %d, want 4", f)
	}
	if h.Size() != 4 {
		t.Errorf("Size = %d, want 4", h.Size())
	}
}

// TestHeapLazyExpiryMatchesScan cross-checks the lazy-expiry fast path
// against a straightforward scan model under monotone query times (the
// documented Heap contract).
func TestHeapLazyExpiryMatchesScan(t *testing.T) {
	h := NewHeap(3)
	type model struct{ release []uint64 }
	m := model{}
	free := func(now uint64) int {
		used := 0
		for _, r := range m.release {
			if r > now {
				used++
			}
		}
		return 3 - used
	}
	now := uint64(0)
	rng := uint64(12345)
	for i := 0; i < 2000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		now += rng % 3
		if gotAt, wantFree := h.Acquire(now), free(now); wantFree == 0 {
			// Full: the model's earliest release bounds the grant.
			min := m.release[0]
			for _, r := range m.release {
				if r < min {
					min = r
				}
			}
			if want := max(min, now); gotAt != want {
				t.Fatalf("step %d: Acquire(%d) = %d, want %d", i, now, gotAt, want)
			}
		} else if gotAt != now {
			t.Fatalf("step %d: Acquire(%d) = %d, want immediate", i, now, gotAt)
		}
		rel := now + 1 + rng%7
		h.Commit(rel)
		// Model commit: evict entries the heap would consider expired or,
		// when full, the earliest release.
		keep := m.release[:0]
		for _, r := range m.release {
			if r > now {
				keep = append(keep, r)
			}
		}
		m.release = keep
		if len(m.release) == 3 {
			minI := 0
			for j, r := range m.release {
				if r < m.release[minI] {
					minI = j
				}
			}
			m.release = append(m.release[:minI], m.release[minI+1:]...)
		}
		m.release = append(m.release, rel)
		if got, want := h.Free(now), free(now); got != want {
			t.Fatalf("step %d: Free(%d) = %d, want %d", i, now, got, want)
		}
	}
}

// TestHeapOrderingProperty: property — when every occupant's release time is
// at or after its acquire time (true for all pipeline resources: an entry is
// freed after it is granted), successive acquire times are monotone.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(rels []uint16) bool {
		h := NewHeap(4)
		var lastMin uint64
		for _, r := range rels {
			at := h.Acquire(0)
			if at < lastMin {
				return false // the earliest-free time can only move forward
			}
			lastMin = at
			h.Commit(at + uint64(r))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConstructorsPanicOnBadInput(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewCalendar(0)", func() { NewCalendar(0, nil) })
	mustPanic("NewHeap(0)", func() { NewHeap(0) })
}

func TestPeekDoesNotBook(t *testing.T) {
	c := NewCalendar(1, nil)
	if c.Peek(10) != 10 {
		t.Fatal("peek on empty calendar")
	}
	if c.Peek(10) != 10 {
		t.Fatal("peek must not consume capacity")
	}
	c.Reserve(10)
	if c.Peek(10) != 11 {
		t.Fatal("peek should see the booked slot")
	}
	if got := c.Reserve(10); got != 11 {
		t.Fatalf("reserve after peek = %d, want 11", got)
	}
}

// calendarOracle is the exact model a Calendar must match: an unbounded map
// from cycle to booking count.
type calendarOracle struct {
	capacity int
	count    map[uint64]int
}

func (o *calendarOracle) peek(at uint64) uint64 {
	for o.count[at] >= o.capacity {
		at++
	}
	return at
}

func (o *calendarOracle) reserve(at uint64) uint64 {
	at = o.peek(at)
	o.count[at]++
	return at
}

// TestCalendarMatchesMapOracle is the differential property test for the
// floor contract: random bookings, peeks and loads at or above a random
// monotone floor must answer exactly like the map oracle, through forced
// ring growth, replay after Reset, and an era rebase.
func TestCalendarMatchesMapOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		start    uint64 // initial floor
		step     uint64 // max floor advance per operation
		spread   uint64 // max query distance above the floor
		resetAt  int    // Reset both every resetAt operations (0: never)
	}{
		{"tight", 1, 0, 3, 40, 0},
		{"forces-growth", 2, 0, 4, 6000, 0},
		{"wide-capacity", 8, 0, 2, 300, 0},
		{"replay-after-reset", 2, 0, 5, 3000, 7000},
		{"era-rebase", 2, maxEra<<minLog2 - 30_000, 3, 200, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := &Timeline{Floor: tc.start}
			c := NewCalendar(tc.capacity, tl)
			o := &calendarOracle{tc.capacity, map[uint64]int{}}
			src := xrand.New(0xCA1 + uint64(tc.capacity) + tc.spread)
			maxCells := 0
			for op := 0; op < 40_000; op++ {
				if tc.resetAt > 0 && op%tc.resetAt == tc.resetAt-1 {
					c.Reset()
					o = &calendarOracle{tc.capacity, map[uint64]int{}}
					tl.Floor = 0
				}
				tl.Floor += src.Uint64n(tc.step + 1)
				at := tl.Floor + src.Uint64n(tc.spread+1)
				switch src.Intn(4) {
				case 0, 1:
					if got, want := c.Reserve(at), o.reserve(at); got != want {
						t.Fatalf("op %d: Reserve(%d) = %d, oracle %d", op, at, got, want)
					}
				case 2:
					if got, want := c.Peek(at), o.peek(at); got != want {
						t.Fatalf("op %d: Peek(%d) = %d, oracle %d", op, at, got, want)
					}
				default:
					if got, want := c.Load(at), o.count[at]; got != want {
						t.Fatalf("op %d: Load(%d) = %d, oracle %d", op, at, got, want)
					}
				}
				maxCells = max(maxCells, c.Cells())
			}
			if f := tl.Fault; f != nil {
				t.Fatalf("fault on a floor-respecting sequence: %v", f)
			}
			switch tc.name {
			case "forces-growth", "replay-after-reset":
				if maxCells < 4*minCells {
					t.Errorf("ring peaked at %d cells; the case should force growth", maxCells)
				}
			case "era-rebase":
				if c.end >= tc.start {
					t.Errorf("ring cycles end at %d, not rebased below %d", c.end, tc.start)
				}
			}
		})
	}
}

// TestCalendarFaults: a live collision in a full ring and a query below the
// floor are both recorded on the timeline, which keeps the first fault.
func TestCalendarFaults(t *testing.T) {
	tl := new(Timeline)
	c := NewCalendar(1, tl)
	c.Reserve(0)
	c.Reserve(MaxCells) // floor 0 keeps cycle 0 live: the cap is reached
	if f := tl.Fault; f == nil || f.BelowFloor || f.Cycle != MaxCells {
		t.Errorf("cap collision: fault %+v, want a collision at cycle %d", f, MaxCells)
	}
	if c.Cells() != MaxCells {
		t.Errorf("ring has %d cells, want the cap %d", c.Cells(), MaxCells)
	}
	// A later fault on the timeline, from any of its calendars, keeps the
	// first.
	tl.Floor = 10
	NewCalendar(1, tl).Reserve(5)
	if f := tl.Fault; f == nil || f.BelowFloor || f.Cycle != MaxCells {
		t.Errorf("a later fault replaced the first: %+v", f)
	}

	tl = new(Timeline)
	c = NewCalendar(1, tl)
	c.Reserve(600)
	tl.Floor = 1000
	c.Reserve(600 + minCells) // reuses the dead cell of cycle 600
	if n := c.Load(600); n != 0 {
		t.Errorf("Load below the floor = %d", n)
	}
	if f := tl.Fault; f == nil || !f.BelowFloor || f.Cycle != 600 || f.Floor != 1000 {
		t.Errorf("below-floor query: fault %+v, want cycle 600 below floor 1000", f)
	}
	if c.Cells() != minCells {
		t.Errorf("ring grew to %d cells over a dead cell", c.Cells())
	}
}
