// Package sched provides cycle calendars: reservation structures that model
// resources with a fixed per-cycle capacity (network link slots, cache
// ports, functional units). The simulator books each event into the
// earliest feasible cycle, which models out-of-order resource arbitration
// with buffering: when more requests compete for a cycle than the capacity
// allows, the excess is pushed to later cycles — exactly the paper's "one
// transfer is effected in that cycle, while the others are buffered"
// semantics with unbounded buffers.
package sched

import "fmt"

// Calendar reserves capacity-limited slots on a cycle timeline. The zero
// value is not usable; construct with NewCalendar. Not safe for concurrent
// use.
//
// The timeline is stored as an era-stamped ring: cell i describes ring cycle
// era*W + i, where W is the ring size and the era is packed into the cell
// alongside the booking count ((era+1)<<8 | count; a zero cell is empty and
// matches no cycle). Ring cycles are the caller's cycles plus a
// per-calendar base, which is how Reset empties the calendar in O(1): it
// moves the base past every booked cycle.
//
// Each calendar lives on a Timeline, whose floor is a cycle below which no
// later Reserve, Peek or Load lands (for a processor, its fetch frontier).
// A cell is live if it holds bookings for a cycle at or above the floor.
// Bookings below the floor can never be observed again, so a cell stamped
// for another cycle that is not live reads as empty and is reused in place.
// When Reserve lands on a live cell stamped for another cycle, the ring
// doubles and re-buckets its live cells by absolute cycle (as Wheel.grow
// does), so no two live cycles ever share a cell: the calendar answers
// exactly like an unbounded map from cycle to count, and stays as small as
// the live span it actually holds. Rings start at minCells and stop growing
// at MaxCells; a live collision at the cap, or a query below the floor, is
// recorded as the timeline's Fault instead of being answered inexactly.
type Calendar struct {
	capacity uint32
	cells    []uint32 // (era+1)<<8 | count per ring cycle; len is a power of two
	mask     uint64   // len(cells) - 1
	log2W    uint     // log2(len(cells)); ringCycle>>log2W is the era
	base     uint64   // ring cycle = cycle + base (mod 2^64)
	end      uint64   // one past the highest ring cycle ever booked
	tl       *Timeline
}

// Timeline is what the calendars of one machine share: their query floor
// and the first query any of them could not answer exactly. Its owner
// advances Floor, and zeroes the timeline when it resets the calendars.
type Timeline struct {
	// Floor is a cycle below which no later Reserve, Peek or Load of a
	// calendar on the timeline lands. It never decreases between resets.
	Floor uint64
	// Fault is the first query a calendar on the timeline could not answer
	// exactly, or nil.
	Fault *Fault
}

// Fault describes the first query a calendar could not answer exactly.
type Fault struct {
	// Cycle is the queried cycle and Floor the query floor at the time, both
	// on the caller's timeline.
	Cycle, Floor uint64
	// BelowFloor is set when the query broke the floor contract. Otherwise
	// two live cycles collided in a ring already at MaxCells cells, or were
	// more than the era field can span apart.
	BelowFloor bool
}

func (f Fault) Error() string {
	if f.BelowFloor {
		return fmt.Sprintf("sched: calendar queried at cycle %d, below its floor %d", f.Cycle, f.Floor)
	}
	return fmt.Sprintf("sched: calendar cannot book cycle %d exactly: its live cycles (floor %d) need more than a %d-cell ring",
		f.Cycle, f.Floor, MaxCells)
}

const (
	// minCells is the ring size a calendar starts with (2 KiB).
	minLog2  = 9
	minCells = 1 << minLog2
	// MaxCells is the ring size at which a calendar stops growing (256 KiB).
	MaxCells = 1 << 16
	// maxEra bounds the eras of booked cells, so that era+1 fits the cell's
	// 24-bit stamp: ring cycles are kept below maxEra eras by rebasing.
	maxEra = 1<<24 - 1
)

// MaxAccessSpan bounds the worst single access a configuration may contain.
// It is a sanity bound, not the ring's safety bound: calendars grow on
// demand and never alias two live cycles, so it only keeps configurations
// near the range the tests exercise. That access is a load that misses to
// memory from the cluster farthest from the cache, over the slowest wire
// class: the address goes out over the longest route, looks up L1D, L2 and
// memory, and the data comes back over the same route. At Table 1 values
// that is 2*3 + 6 + 30 + 300 = 342 cycles on the 4-cluster crossbar, and
// 2*(3 + 2*6) + 336 = 366 on the 16-cluster ring (PW: 3 cycles per
// crossbar, 6 per ring hop, two hops to the cache's quad at most), each
// route term multiplied by the latency scale. config.Validate rejects a
// configuration whose span exceeds this bound.
const MaxAccessSpan = 2048

// MaxCalendarCapacity is the largest per-cycle capacity a Calendar holds:
// each cell counts its cycle's bookings in 8 bits.
const MaxCalendarCapacity = 255

// NewCalendar creates a calendar with the given per-cycle capacity, which
// must fit the 8-bit count field, on the given timeline. A nil timeline
// gives the calendar a private one whose floor stays at cycle 0: every
// booking stays live until Reset.
func NewCalendar(capacity int, tl *Timeline) *Calendar {
	if capacity <= 0 {
		panic("sched: calendar capacity must be positive")
	}
	if capacity > MaxCalendarCapacity {
		panic("sched: calendar capacity exceeds the 8-bit cell count")
	}
	if tl == nil {
		tl = new(Timeline)
	}
	return &Calendar{
		capacity: uint32(capacity),
		cells:    make([]uint32, minCells),
		mask:     minCells - 1,
		log2W:    minLog2,
		tl:       tl,
	}
}

// stamp is the era stamp of ring cycle x, as stored in a cell's top 24 bits.
func (c *Calendar) stamp(x uint64) uint64 { return x>>c.log2W + 1 }

// cycleOf is the ring cycle a booked cell at index i holds.
func cycleOf(cell uint32, i uint64, log2W uint) uint64 {
	return uint64(cell>>8-1)<<log2W | i
}

// Capacity returns the per-cycle capacity.
func (c *Calendar) Capacity() int { return int(c.capacity) }

// Cells returns the current ring size.
func (c *Calendar) Cells() int { return len(c.cells) }

// Reserve books one unit of capacity at the earliest cycle >= at and
// returns that cycle. The common case — the cell is already stamped for the
// requested cycle, so the cycle holds bookings, and has spare capacity — is
// an add, a mask, a stamp compare and an increment; everything else lives
// in reserveSlow.
func (c *Calendar) Reserve(at uint64) uint64 {
	x := at + c.base
	i := x & c.mask
	if cell := c.cells[i]; uint64(cell>>8) == c.stamp(x) && cell&0xFF < c.capacity {
		c.cells[i] = cell + 1
		return at
	}
	got := c.reserveSlow(x) // may move the base
	return got - c.base
}

// reserveSlow books the earliest ring cycle >= x.
func (c *Calendar) reserveSlow(x uint64) uint64 {
	for {
		i := x & c.mask
		cell := c.cells[i]
		if uint64(cell>>8) == c.stamp(x) {
			if cell&0xFF < c.capacity {
				c.cells[i] = cell + 1
				return x
			}
			x++
			continue
		}
		// The cell holds no booking for x: it is empty, dead, or live for
		// another cycle.
		fl := c.tl.Floor + c.base
		if x < fl {
			c.setFault(x, true)
		}
		if x>>c.log2W >= maxEra {
			if x = c.rebase(x, fl); x>>c.log2W >= maxEra {
				c.setFault(x, false)
				return x
			}
			continue
		}
		if cell != 0 && cycleOf(cell, i, c.log2W) >= fl {
			if len(c.cells) < MaxCells {
				c.grow(fl)
				continue
			}
			c.setFault(x, false)
		}
		c.cells[i] = uint32(c.stamp(x))<<8 | 1
		if x >= c.end {
			c.end = x + 1
		}
		return x
	}
}

// stale handles a query that found no booking for ring cycle x: the cycle
// is empty, which is exact unless the query broke the floor contract.
func (c *Calendar) stale(x uint64) {
	if x < c.tl.Floor+c.base {
		c.setFault(x, true)
	}
}

// setFault records a fault at ring cycle x on the timeline, unless it
// already holds one.
func (c *Calendar) setFault(x uint64, belowFloor bool) {
	if c.tl.Fault == nil {
		c.tl.Fault = &Fault{Cycle: x - c.base, Floor: c.tl.Floor, BelowFloor: belowFloor}
	}
}

// grow doubles the ring, re-bucketing the live cells (those booked for a
// ring cycle at or above fl) by absolute cycle and dropping the rest.
// Distinct cycles in distinct cells of a ring stay distinct in one twice
// its size, so growth never merges two live cycles.
func (c *Calendar) grow(fl uint64) {
	old, oldLog := c.cells, c.log2W
	c.cells = make([]uint32, 2*len(old))
	c.mask = uint64(len(c.cells) - 1)
	c.log2W++
	for i, cell := range old {
		if cell == 0 {
			continue
		}
		if cyc := cycleOf(cell, uint64(i), oldLog); cyc >= fl {
			c.cells[cyc&c.mask] = uint32(c.stamp(cyc))<<8 | cell&0xFF
		}
	}
}

// rebase keeps eras below maxEra: it moves every ring cycle
// down by the whole eras below the floor fl, clearing the dead cells, and
// returns x on the new timeline. Cell indexes do not change.
func (c *Calendar) rebase(x, fl uint64) uint64 {
	drop := fl >> c.log2W
	for i, cell := range c.cells {
		if cell == 0 {
			continue
		}
		if cycleOf(cell, uint64(i), c.log2W) < fl {
			c.cells[i] = 0
		} else {
			c.cells[i] = cell - uint32(drop)<<8
		}
	}
	shift := drop << c.log2W
	c.base -= shift
	c.end = max(c.end, shift) - shift
	return max(x, shift) - shift
}

// Reset empties the calendar in O(1), keeping the ring and its size: the
// base moves past every booked cycle, so every cell is dead, whatever the
// floor, and reads as empty. The timeline is its owner's to reset.
func (c *Calendar) Reset() {
	c.base = c.end
}

// Peek returns the cycle Reserve(at) would grant, without booking it.
func (c *Calendar) Peek(at uint64) uint64 {
	x := at + c.base
	for x < c.end {
		cell := c.cells[x&c.mask]
		if uint64(cell>>8) != c.stamp(x) {
			c.stale(x)
			break
		}
		if cell&0xFF < c.capacity {
			break
		}
		x++
	}
	return x - c.base
}

// Load returns the number of reservations booked at the cycle.
func (c *Calendar) Load(cycle uint64) int {
	x := cycle + c.base
	if x >= c.end {
		return 0
	}
	cell := c.cells[x&c.mask]
	if uint64(cell>>8) != c.stamp(x) {
		c.stale(x)
		return 0
	}
	return int(cell & 0xFF)
}
