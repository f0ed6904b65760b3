// Package sched provides cycle calendars: reservation structures that model
// resources with a fixed per-cycle capacity (network link slots, cache
// ports, functional units). The simulator books each event into the
// earliest feasible cycle, which models out-of-order resource arbitration
// with buffering: when more requests compete for a cycle than the capacity
// allows, the excess is pushed to later cycles — exactly the paper's "one
// transfer is effected in that cycle, while the others are buffered"
// semantics with unbounded buffers.
package sched

// Calendar reserves capacity-limited slots on a cycle timeline. The zero
// value is not usable; construct with NewCalendar. Not safe for concurrent
// use.
//
// The timeline is stored as an era-stamped ring: cell i describes cycle
// era*W + i, where W is the ring size and the era is packed into the cell
// alongside the booking count (era<<8 | count). A cell whose stamp does not
// match the requested cycle's era belongs to a cycle at least W away and
// reads as empty, so advancing through time never clears or slides
// anything — stale cells are reinterpreted in place. The era field is 24
// bits wide, so cycles alias only after 2^24 eras (2^40 cycles with the
// default ring); simulated runs are orders of magnitude shorter.
type Calendar struct {
	capacity uint16
	cells    []uint32 // era<<8 | count per cycle; len is a power of two
	mask     uint64   // len(cells) - 1
	log2W    uint     // log2(len(cells)); cycle>>log2W is the era
	// hiCycle is the highest cycle ever booked — the dirty-region watermark
	// Reset uses to clear only touched cells instead of the whole ring.
	hiCycle uint64
	// Clamped is retained for telemetry compatibility: the former
	// sliding-window implementation clamped requests behind the window base
	// and counted them here. Era-stamped cells have no base to fall behind,
	// so the counter is structurally zero — matching the invariant the
	// integration tests always asserted.
	Clamped uint64
}

// DefaultWindow is the calendar ring size in cycles. Two cycles that are
// simultaneously in flight must never be a multiple of the ring size apart,
// since they would share a cell — era stamps make a smaller ring safe
// (stale cells read as empty instead of needing to be slid past), and the
// smaller ring keeps the hot cells resident in cache.
const DefaultWindow = 1 << 13

// MaxAccessSpan bounds the worst single access a configuration may contain,
// keeping the ring 4x longer than it. That access is a load that misses to
// memory from the cluster farthest from the cache, over the slowest wire
// class: the address goes out over the longest route, looks up L1D, L2 and
// memory, and the data comes back over the same route. At Table 1 values
// that is 2*3 + 6 + 30 + 300 = 342 cycles on the 4-cluster crossbar, and
// 2*(3 + 2*6) + 336 = 366 on the 16-cluster ring (PW: 3 cycles per
// crossbar, 6 per ring hop, two hops to the cache's quad at most), each
// route term multiplied by the latency scale. config.Validate rejects a
// configuration whose span exceeds this bound. Chains of dependent accesses
// can book further ahead than one access; that the ring holds them is
// measured, not derived: at each bound Validate sets, mcf, gcc and swim on
// both topologies give the same results with a 1M-cycle ring as with this
// one.
const MaxAccessSpan = DefaultWindow / 4

// MaxCalendarCapacity is the largest per-cycle capacity a Calendar holds:
// each cell counts its cycle's bookings in 8 bits.
const MaxCalendarCapacity = 255

// NewCalendar creates a calendar with the given per-cycle capacity and ring
// size (rounded up to a minimum of 1024 cycles and to the next power of
// two, so ring indexing is a mask instead of a division). The capacity must
// fit the 8-bit count field.
func NewCalendar(capacity, window int) *Calendar {
	if capacity <= 0 {
		panic("sched: calendar capacity must be positive")
	}
	if capacity > MaxCalendarCapacity {
		panic("sched: calendar capacity exceeds the 8-bit cell count")
	}
	if window < 1024 {
		window = 1024
	}
	// Round up to a power of two. The ring size is behaviour-neutral:
	// reservation results depend only on the booked counts, which are
	// identical for any ring wider than the in-flight cycle span.
	w := 1024
	for w < window {
		w <<= 1
	}
	lg := uint(0)
	for 1<<lg < w {
		lg++
	}
	return &Calendar{
		capacity: uint16(capacity),
		cells:    make([]uint32, w),
		mask:     uint64(w - 1),
		log2W:    lg,
	}
}

// Capacity returns the per-cycle capacity.
func (c *Calendar) Capacity() int { return int(c.capacity) }

// Reserve books one unit of capacity at the earliest cycle >= at and
// returns that cycle. The common case — the requested cycle has spare
// capacity — is a mask, a stamp compare, and an increment; probing past
// full cycles lives in reserveSlow.
func (c *Calendar) Reserve(at uint64) uint64 {
	i := at & c.mask
	key := uint32(at>>c.log2W) << 8
	cell := c.cells[i]
	if cell&^uint32(0xFF) != key {
		cell = key // stale era: the cycle is empty
	}
	if cell&0xFF < uint32(c.capacity) {
		c.cells[i] = cell + 1
		if at > c.hiCycle {
			c.hiCycle = at
		}
		return at
	}
	return c.reserveSlow(at + 1)
}

func (c *Calendar) reserveSlow(at uint64) uint64 {
	for {
		i := at & c.mask
		key := uint32(at>>c.log2W) << 8
		cell := c.cells[i]
		if cell&^uint32(0xFF) != key {
			cell = key
		}
		if cell&0xFF < uint32(c.capacity) {
			c.cells[i] = cell + 1
			if at > c.hiCycle {
				c.hiCycle = at
			}
			return at
		}
		at++
	}
}

// Reset restores the calendar to its just-constructed state, keeping the
// ring storage. Booked cycles all map to ring indexes at or below the
// watermark (cycles 0..hiCycle cover ring prefix 0..min(hiCycle, mask)),
// so only that prefix needs clearing; for the many lightly-used calendars
// in a machine this is a handful of cells instead of the whole ring (one
// for an unused calendar). Cells beyond the prefix keep their stale stamps
// and read as empty.
func (c *Calendar) Reset() {
	n := c.hiCycle + 1
	if n > uint64(len(c.cells)) {
		n = uint64(len(c.cells))
	}
	clear(c.cells[:n])
	c.hiCycle, c.Clamped = 0, 0
}

// Peek returns the cycle Reserve(at) would grant, without booking it.
func (c *Calendar) Peek(at uint64) uint64 {
	for {
		i := at & c.mask
		key := uint32(at>>c.log2W) << 8
		cell := c.cells[i]
		if cell&^uint32(0xFF) != key || cell&0xFF < uint32(c.capacity) {
			return at
		}
		at++
	}
}

// Load returns the number of reservations currently booked at the cycle (0
// for cycles whose cell has been overwritten by a later era).
func (c *Calendar) Load(cycle uint64) int {
	i := cycle & c.mask
	key := uint32(cycle>>c.log2W) << 8
	if v := c.cells[i]; v&^uint32(0xFF) == key {
		return int(v & 0xFF)
	}
	return 0
}
