package sched

import (
	"testing"
	"testing/quick"

	"hetwire/internal/xrand"
)

func TestCalendarSerializesOverCapacity(t *testing.T) {
	c := NewCalendar(1, 0)
	got := []uint64{c.Reserve(10), c.Reserve(10), c.Reserve(10)}
	want := []uint64{10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reservation %d at cycle %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCalendarCapacityTwo(t *testing.T) {
	c := NewCalendar(2, 0)
	if a, b := c.Reserve(5), c.Reserve(5); a != 5 || b != 5 {
		t.Errorf("two reservations should share cycle 5, got %d and %d", a, b)
	}
	if x := c.Reserve(5); x != 6 {
		t.Errorf("third reservation should spill to cycle 6, got %d", x)
	}
}

func TestCalendarOutOfOrderRequests(t *testing.T) {
	c := NewCalendar(1, 0)
	if x := c.Reserve(100); x != 100 {
		t.Fatalf("got %d", x)
	}
	// An earlier request must still find cycle 50 free.
	if x := c.Reserve(50); x != 50 {
		t.Errorf("earlier free cycle not granted: got %d, want 50", x)
	}
}

func TestCalendarSlidesWithoutLosingCapacityInvariant(t *testing.T) {
	c := NewCalendar(1, 1024)
	src := xrand.New(42)
	seen := make(map[uint64]int)
	cycle := uint64(0)
	for i := 0; i < 50000; i++ {
		cycle += uint64(src.Intn(3))
		got := c.Reserve(cycle)
		seen[got]++
		if seen[got] > 1 {
			t.Fatalf("cycle %d double-booked on a capacity-1 calendar", got)
		}
	}
	if c.Clamped != 0 {
		t.Errorf("window clamped %d times; window too small for this access pattern", c.Clamped)
	}
}

func TestCalendarFarJump(t *testing.T) {
	c := NewCalendar(1, 1024)
	c.Reserve(0)
	if x := c.Reserve(1 << 30); x != 1<<30 {
		t.Errorf("far-future reservation: got %d", x)
	}
	// Era-stamped cells have no sliding window to fall behind: an earlier
	// free cycle is still granted after a far-future jump, and nothing is
	// ever clamped. (The former sliding-window implementation clamped such
	// requests to the window base; that was an artifact the engine never
	// exercised — integration tests assert Clamped == 0.)
	if x := c.Reserve(5); x != 5 {
		t.Errorf("earlier free cycle after far jump: got %d, want 5", x)
	}
	if c.Clamped != 0 {
		t.Errorf("Clamped = %d, want 0", c.Clamped)
	}
	// The far-future cycle shares a ring cell with 1<<30 + k*1024 cycles;
	// a fresh era reinterprets it as empty.
	if x := c.Reserve(1<<30 + 1024); x != 1<<30+1024 {
		t.Errorf("next-era reservation on a stale cell: got %d", x)
	}
}

// TestCalendarNeverExceedsCapacity is the core property: for any request
// sequence within the window, the per-cycle booking count never exceeds
// capacity.
func TestCalendarNeverExceedsCapacity(t *testing.T) {
	f := func(capRaw uint8, reqs []uint16) bool {
		capacity := int(capRaw%4) + 1
		c := NewCalendar(capacity, 4096)
		counts := make(map[uint64]int)
		for _, r := range reqs {
			got := c.Reserve(uint64(r))
			counts[got]++
			if counts[got] > capacity {
				return false
			}
			if got < uint64(r) {
				return false // must never schedule before the request
			}
		}
		return true
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
	mustPanic("NewCalendar(0)", func() { NewCalendar(0, 0) })
	mustPanic("NewHeap(0)", func() { NewHeap(0) })
}

func TestPeekDoesNotBook(t *testing.T) {
	c := NewCalendar(1, 0)
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
