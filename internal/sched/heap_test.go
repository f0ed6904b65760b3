package sched

// Heap is the reference model of the pool Wheel implements: a
// bounded-occupancy min-heap of release times, modelling a resource pool of
// fixed size where each occupant holds a slot until its release time
// (issue-queue entries held until issue, rename registers held until
// commit). Acquire returns the earliest cycle at which a slot is guaranteed
// free given the request time. The simulator uses Wheel, which keeps the
// same multiset of release times as a sorted ring; Heap is the oracle the
// differential test in wheel_test.go drives it against, since a heap
// orders by sifting and shares none of the ring's insertion scan or
// wrap-around.
//
// Query times must be non-decreasing: Acquire and Free lazily expire
// occupants whose release time has passed, so a query at cycle t discards
// state that an earlier-cycle query could still observe. Every pipeline
// resource satisfies this naturally (requests are issued along a monotone
// dispatch frontier); the expiry makes both operations O(1) amortized
// instead of an O(slots) scan per call.
type Heap struct {
	release []uint64
	size    int
}

// NewHeap creates a pool with the given number of slots.
func NewHeap(slots int) *Heap {
	if slots <= 0 {
		panic("sched: heap needs at least one slot")
	}
	return &Heap{release: make([]uint64, 0, slots), size: slots}
}

// expire drops occupants whose slots are free at cycle now.
func (h *Heap) expire(now uint64) {
	for len(h.release) > 0 && h.release[0] <= now {
		h.popMin()
	}
}

// Acquire requests a slot at cycle `at`; it returns the earliest cycle >= at
// when a slot is free. The caller must then call Commit with the slot's
// release time.
func (h *Heap) Acquire(at uint64) uint64 {
	h.expire(at)
	if len(h.release) < h.size {
		return at
	}
	return h.release[0]
}

// Commit records that the slot acquired most recently will be held until
// release. It evicts the earliest-releasing entry if the pool is full
// (that entry's slot is the one being reused).
func (h *Heap) Commit(release uint64) {
	if len(h.release) == h.size {
		h.popMin()
	}
	h.push(release)
}

// Free returns the number of currently unused slots assuming the given
// current cycle (entries with release <= now are free).
func (h *Heap) Free(now uint64) int {
	h.expire(now)
	return h.size - len(h.release)
}

// Size returns the pool size.
func (h *Heap) Size() int { return h.size }

// Occupied returns the number of resident entries, counting entries whose
// release time has passed but that lazy expiry has not yet dropped. Unlike
// Free it touches no state, so telemetry may call it at any cycle without
// violating the monotone-query contract; the value is an upper bound on the
// true occupancy at the last queried cycle.
func (h *Heap) Occupied() int { return len(h.release) }

func (h *Heap) push(v uint64) {
	h.release = append(h.release, v)
	i := len(h.release) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.release[parent] <= h.release[i] {
			break
		}
		h.release[parent], h.release[i] = h.release[i], h.release[parent]
		i = parent
	}
}

func (h *Heap) popMin() uint64 {
	min := h.release[0]
	last := len(h.release) - 1
	h.release[0] = h.release[last]
	h.release = h.release[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.release) && h.release[l] < h.release[smallest] {
			smallest = l
		}
		if r < len(h.release) && h.release[r] < h.release[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.release[i], h.release[smallest] = h.release[smallest], h.release[i]
		i = smallest
	}
	return min
}
