package sched

import "math/bits"

// Wheel is the event-wheel replacement for a binary heap (Heap, kept in
// heap_test.go as the test oracle): the same bounded-occupancy pool
// abstraction (slots held until a release cycle, lazy expiry under the
// monotone-query contract), but stored as a power-of-two ring of per-cycle
// release counts with a one-bit-per-cycle occupancy summary instead of a
// heap. Every operation is a handful of word operations on flat
// arrays — no sift-up/sift-down, no per-operation allocation — and the
// expiry sweep touches each cycle bucket at most once over the life of a
// run, so the amortized cost per query is O(1) plus one bitmap word per 64
// cycles of frontier advance.
//
// Equivalence with Heap (pinned by the differential property test in
// wheel_test.go): under the documented monotone-query contract the two
// structures return identical values from Acquire, Free, Size and Occupied
// for any interleaving of operations. The mapping is direct — the heap's
// multiset of release times is the wheel's bucket counts, expire(now)
// removes every release <= now in both, Acquire returns the request cycle
// when a slot is free and the minimum resident release otherwise (the
// first set bit at or after the frontier), and Commit-when-full evicts the
// minimum resident in both.
//
// The ring window only needs to span the distance between the query
// frontier and the furthest-out resident release (the machine's in-flight
// timespan, a few thousand cycles), not the whole run; Commit grows the
// ring on the rare release beyond it, after which steady state allocates
// nothing.
type Wheel struct {
	counts []uint8  // per-cycle resident release counts, ring-indexed by cycle & mask
	bitmap []uint64 // summary: bit i set iff counts[i] != 0
	mask   uint64   // len(counts) - 1
	// frontier is the expiry frontier: every resident release is >= frontier,
	// and query times seen so far are < frontier. Queries must be
	// non-decreasing (the Heap contract).
	frontier uint64
	occ      int
	// stale counts residents committed with a release below the frontier
	// (i.e. at or before the last query time). They occupy slots but hold no
	// bucket: monotonicity makes any subsequent query time >= their release,
	// so the next expiry call drops them all — exactly when the heap's lazy
	// expiry would.
	stale int
	size  int
}

// wheelMinWindow is the initial ring span in cycles. It comfortably covers
// the in-flight span of typical runs; Commit doubles the ring if a release
// ever lands beyond it, which is deterministic (the trigger depends only on
// simulated timing) and vanishingly rare after warmup.
const wheelMinWindow = 1 << 12

// MaxWheelSlots is the largest pool a Wheel holds: its per-cycle release
// counts are uint8.
const MaxWheelSlots = 255

// NewWheel creates a pool with the given number of slots.
func NewWheel(slots int) *Wheel {
	if slots <= 0 {
		panic("sched: wheel needs at least one slot")
	}
	if slots > MaxWheelSlots {
		panic("sched: wheel supports at most 255 slots")
	}
	w := &Wheel{size: slots}
	w.counts = make([]uint8, wheelMinWindow)
	w.bitmap = make([]uint64, wheelMinWindow/64)
	w.mask = wheelMinWindow - 1
	return w
}

// Acquire requests a slot at cycle `at`; it returns the earliest cycle >= at
// when a slot is free. The caller must then call Commit with the slot's
// release time. The common case — the frontier already passed `at` (so there
// is nothing to expire) and a slot is free — is branch-and-return, small
// enough to inline at call sites.
func (w *Wheel) Acquire(at uint64) uint64 {
	if w.stale == 0 && at < w.frontier && w.occ < w.size {
		return at
	}
	return w.acquireSlow(at)
}

func (w *Wheel) acquireSlow(at uint64) uint64 {
	w.expire(at)
	if w.occ < w.size {
		return at
	}
	return w.firstResident()
}

// Commit records that the slot acquired most recently will be held until
// release, evicting the earliest-releasing resident if the pool is full
// (that resident's slot is the one being reused).
func (w *Wheel) Commit(release uint64) {
	if w.occ == w.size {
		w.evictMin()
	}
	if release < w.frontier {
		// Already past the expiry frontier: the heap would keep the entry
		// resident only until the next query, whose time is necessarily
		// >= the release under the monotone contract. Count it as stale.
		w.stale++
		w.occ++
		return
	}
	for release-w.frontier > w.mask {
		w.grow()
	}
	i := release & w.mask
	w.counts[i]++
	w.bitmap[i>>6] |= 1 << (i & 63)
	w.occ++
}

// Free returns the number of unused slots at the given cycle. Like Acquire
// it inlines the already-expired common case: repeated queries at one
// dispatch cycle (the steering heuristic polls every cluster's queues at the
// same cycle) cost a compare and a subtraction each after the first.
func (w *Wheel) Free(now uint64) int {
	if w.stale == 0 && now < w.frontier {
		return w.size - w.occ
	}
	return w.freeSlow(now)
}

func (w *Wheel) freeSlow(now uint64) int {
	w.expire(now)
	return w.size - w.occ
}

// Size returns the pool size.
func (w *Wheel) Size() int { return w.size }

// Occupied returns the number of resident entries, counting entries whose
// release time has passed but that lazy expiry has not yet dropped — the
// same telemetry-safe upper bound Heap.Occupied documents. It touches no
// state.
func (w *Wheel) Occupied() int { return w.occ }

// Reset empties the wheel and rewinds the frontier to cycle zero, keeping
// the ring storage for reuse. Only the dirty buckets are cleared.
func (w *Wheel) Reset() {
	if w.occ > w.stale {
		w.drain(w.frontier, w.mask+1)
	}
	w.frontier = 0
	w.occ, w.stale = 0, 0
}

// expire drops residents whose release is at or before now and advances the
// frontier.
func (w *Wheel) expire(now uint64) {
	if w.stale > 0 {
		// now >= last query time >= every stale release (monotone queries).
		w.occ -= w.stale
		w.stale = 0
	}
	if now < w.frontier {
		return
	}
	if w.occ > 0 {
		span := now - w.frontier
		if span > w.mask {
			span = w.mask
		}
		w.drain(w.frontier, span+1)
	}
	w.frontier = now + 1
}

// drain clears the buckets of cycles [start, start+n), n <= ring size,
// subtracting their counts from the occupancy.
func (w *Wheel) drain(start, n uint64) {
	i := start & w.mask
	if i+n <= uint64(len(w.counts)) {
		w.drainRange(int(i), int(n))
		return
	}
	k := uint64(len(w.counts)) - i
	w.drainRange(int(i), int(k))
	w.drainRange(0, int(n-k))
}

// drainRange clears buckets [from, from+n) in ring-index space.
func (w *Wheel) drainRange(from, n int) {
	wordLo, wordHi := from>>6, (from+n-1)>>6
	for wi := wordLo; wi <= wordHi && w.occ > 0; wi++ {
		word := w.bitmap[wi]
		if word == 0 {
			continue
		}
		m := ^uint64(0)
		if wi == wordLo {
			m &= ^uint64(0) << (uint(from) & 63)
		}
		if wi == wordHi {
			m &= ^uint64(0) >> (63 - (uint(from+n-1) & 63))
		}
		hit := word & m
		for hit != 0 {
			idx := wi<<6 | bits.TrailingZeros64(hit)
			w.occ -= int(w.counts[idx])
			w.counts[idx] = 0
			hit &= hit - 1
		}
		w.bitmap[wi] = word &^ m
	}
}

// firstResident returns the minimum resident release cycle. Must only be
// called with occ > 0; residents all lie in [frontier, frontier+ring).
func (w *Wheel) firstResident() uint64 {
	i := w.frontier & w.mask
	wi := int(i >> 6)
	nWords := len(w.bitmap)
	word := w.bitmap[wi] & (^uint64(0) << (uint(i) & 63))
	for k := 0; k <= nWords; k++ {
		if word != 0 {
			idx := uint64(wi<<6 | bits.TrailingZeros64(word))
			return w.frontier + ((idx - i) & w.mask)
		}
		wi++
		if wi == nWords {
			wi = 0
		}
		word = w.bitmap[wi]
	}
	panic("sched: wheel occupancy does not match bitmap")
}

// evictMin removes one resident with the minimum release cycle. Stale
// residents sit below the frontier, so they are the minimum when present.
func (w *Wheel) evictMin() {
	if w.stale > 0 {
		w.stale--
		w.occ--
		return
	}
	i := w.firstResident() & w.mask
	w.counts[i]--
	if w.counts[i] == 0 {
		w.bitmap[i>>6] &^= 1 << (i & 63)
	}
	w.occ--
}

// grow doubles the ring, re-bucketing residents by their absolute cycle.
// The trigger is purely a function of simulated timing, so growth points are
// deterministic and results are independent of the initial ring size.
func (w *Wheel) grow() {
	oldCounts, oldBitmap, oldMask := w.counts, w.bitmap, w.mask
	n := 2 * len(oldCounts)
	w.counts = make([]uint8, n)
	w.bitmap = make([]uint64, n/64)
	w.mask = uint64(n - 1)
	fi := w.frontier & oldMask
	for wi, word := range oldBitmap {
		for word != 0 {
			idx := uint64(wi<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			cycle := w.frontier + ((idx - fi) & oldMask)
			j := cycle & w.mask
			w.counts[j] = oldCounts[idx]
			w.bitmap[j>>6] |= 1 << (j & 63)
		}
	}
}
