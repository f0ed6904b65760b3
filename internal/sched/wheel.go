package sched

// Wheel is a bounded-occupancy pool: slots held until a release cycle, with
// lazy expiry under the monotone-query contract. Heap, kept in heap_test.go
// as the test oracle, is the same abstraction stored as a binary heap.
//
// The residents are a ring of release cycles, exactly one entry per slot,
// kept sorted from the head: the head is the earliest release. Expiry pops
// the head while it is at or before the query cycle, and Acquire on a full
// pool returns the head. Commit evicts the head when the pool is full (that
// resident's slot is the one being reused), then inserts the new release by
// scanning back from the tail. Pools whose releases come in order (rename
// registers freed at commit, fetch-queue entries freed at dispatch) insert
// at the tail without scanning; an issue queue's scan covers at most its
// own size. A pool takes 8 bytes a slot and never grows, so steady state
// allocates nothing.
//
// Equivalence with Heap (pinned by the differential property test in
// wheel_test.go): the ring holds the heap's multiset of release times in
// order, so every Acquire, Free, Size and Occupied answer is identical for
// any interleaving of operations.
type Wheel struct {
	ring []uint64 // release cycles, sorted from head; len is the pool size
	head int      // ring index of the earliest resident release
	occ  int      // residents, stored at ring[head], ..., ring[head+occ-1] (mod len)
}

// MaxWheelSlots is the largest pool a Wheel holds, the bound config.Validate
// applies to every pool size.
const MaxWheelSlots = 255

// NewWheel creates a pool with the given number of slots.
func NewWheel(slots int) *Wheel {
	if slots <= 0 {
		panic("sched: wheel needs at least one slot")
	}
	if slots > MaxWheelSlots {
		panic("sched: wheel supports at most 255 slots")
	}
	return &Wheel{ring: make([]uint64, slots)}
}

// Acquire requests a slot at cycle `at`; it returns the earliest cycle >= at
// when a slot is free. The caller must then call Commit with the slot's
// release time. When nothing is due at `at` it is a compare and a return,
// small enough to inline at call sites.
func (w *Wheel) Acquire(at uint64) uint64 {
	w.expire(at)
	if w.occ < len(w.ring) {
		return at
	}
	return w.ring[w.head]
}

// Commit records that the slot acquired most recently will be held until
// release, evicting the earliest-releasing resident if the pool is full
// (that resident's slot is the one being reused).
func (w *Wheel) Commit(release uint64) {
	n := len(w.ring)
	if w.occ == n {
		w.pop()
	}
	// Shift every resident later than release one place towards the tail,
	// then store release in the gap.
	i := w.head + w.occ
	if i >= n {
		i -= n
	}
	for k := w.occ; k > 0; k-- {
		j := i - 1
		if j < 0 {
			j += n
		}
		if w.ring[j] <= release {
			break
		}
		w.ring[i] = w.ring[j]
		i = j
	}
	w.ring[i] = release
	w.occ++
}

// Free returns the number of unused slots at the given cycle. Like Acquire
// it inlines the case with nothing due: the steering heuristic polls every
// cluster's queues at one dispatch cycle.
func (w *Wheel) Free(now uint64) int {
	w.expire(now)
	return len(w.ring) - w.occ
}

// Size returns the pool size.
func (w *Wheel) Size() int { return len(w.ring) }

// Occupied returns the number of resident entries, counting entries whose
// release time has passed but that lazy expiry has not yet dropped — the
// same telemetry-safe upper bound Heap.Occupied documents. It touches no
// state.
func (w *Wheel) Occupied() int { return w.occ }

// Reset empties the pool, keeping the ring for reuse.
func (w *Wheel) Reset() { w.head, w.occ = 0, 0 }

// expire drops residents whose release is at or before now.
func (w *Wheel) expire(now uint64) {
	for w.occ > 0 && w.ring[w.head] <= now {
		w.pop()
	}
}

// pop drops the earliest resident. Must only be called with occ > 0.
func (w *Wheel) pop() {
	w.head++
	if w.head == len(w.ring) {
		w.head = 0
	}
	w.occ--
}
