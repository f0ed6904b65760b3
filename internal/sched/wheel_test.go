package sched

import (
	"testing"

	"hetwire/internal/xrand"
)

// Release orders for TestWheelHeapDifferential's cases.
const (
	randomReleases     = iota // at or after the grant, by at most maxSpread
	inOrderReleases           // non-decreasing: every insert appends at the tail
	decreasingReleases        // strictly decreasing: every insert scans the whole ring
)

// TestWheelHeapDifferential is the equivalence gate for the release ring: it
// drives a Wheel and a Heap of the same size through long randomized
// operation sequences that respect the documented monotone-query contract
// (non-decreasing query times) and asserts every observable output —
// Acquire grants, Free counts, Occupied counts — is bit-identical. Random
// releases land at or after the granted cycle; the in-order and decreasing
// cases drive the ring's two insertion extremes. Decreasing releases start
// far above every query, so nothing expires and each Commit on the full
// pool evicts the head and scans past every resident; they fall below the
// grant, which the ring and the heap answer alike.
func TestWheelHeapDifferential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		slots     int
		maxStep   uint64 // max query-time advance per operation
		maxSpread uint64 // max release - grant distance
		order     int
	}{
		{"tight", 4, 3, 8, randomReleases},
		{"pipeline-like", 32, 2, 4096, randomReleases},
		{"sparse-queries", 15, 5000, 2000, randomReleases},
		{"forces-growth", 8, 7, 3 * 4096, randomReleases},
		{"single-slot", 1, 11, 700, randomReleases},
		{"in-order", 32, 3, 40, inOrderReleases},
		{"decreasing", 15, 3, 5, decreasingReleases},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := xrand.New(0xD1FF + uint64(tc.slots))
			w := NewWheel(tc.slots)
			h := NewHeap(tc.slots)
			now, last := uint64(0), uint64(1)<<40
			if tc.order != decreasingReleases {
				last = 0
			}
			// release draws a release in [lo, lo+n) for random
			// releases, and one at or after lo and the last release for
			// in-order ones.
			release := func(lo, n uint64) uint64 {
				switch tc.order {
				case inOrderReleases:
					last = max(last, lo) + src.Uint64n(n)
				case decreasingReleases:
					last -= 1 + src.Uint64n(n)
				default:
					last = lo + src.Uint64n(n)
				}
				return last
			}
			for op := 0; op < 30000; op++ {
				now += src.Uint64n(tc.maxStep + 1)
				switch src.Intn(4) {
				case 0: // acquire + commit
					gw, gh := w.Acquire(now), h.Acquire(now)
					if gw != gh {
						t.Fatalf("op %d: Acquire(%d): wheel %d, heap %d", op, now, gw, gh)
					}
					r := release(gh+1, tc.maxSpread)
					w.Commit(r)
					h.Commit(r)
				case 1: // free query
					fw, fh := w.Free(now), h.Free(now)
					if fw != fh {
						t.Fatalf("op %d: Free(%d): wheel %d, heap %d", op, now, fw, fh)
					}
				case 2: // occupancy telemetry (no state change)
					if w.Occupied() != h.Occupied() {
						t.Fatalf("op %d: Occupied: wheel %d, heap %d", op, w.Occupied(), h.Occupied())
					}
				default: // acquire without advancing time again (repeat query)
					gw, gh := w.Acquire(now), h.Acquire(now)
					if gw != gh {
						t.Fatalf("op %d: repeat Acquire(%d): wheel %d, heap %d", op, now, gw, gh)
					}
					r := release(gh, tc.maxSpread+1)
					w.Commit(r)
					h.Commit(r)
				}
			}
			if w.Size() != h.Size() {
				t.Fatalf("Size: wheel %d, heap %d", w.Size(), h.Size())
			}
		})
	}
}

// TestWheelRingSize: a pool holds exactly one release cycle per slot, from
// construction through a run that keeps it full.
func TestWheelRingSize(t *testing.T) {
	for _, n := range []int{1, 15, 32, 64, MaxWheelSlots} {
		w := NewWheel(n)
		if len(w.ring) != n || cap(w.ring) != n {
			t.Fatalf("NewWheel(%d): ring len %d cap %d, want %d", n, len(w.ring), cap(w.ring), n)
		}
		for c := uint64(0); c < 4*uint64(n); c++ {
			w.Commit(w.Acquire(c) + 1000)
		}
		if len(w.ring) != n || cap(w.ring) != n || w.Occupied() != n {
			t.Fatalf("NewWheel(%d) after a full run: ring len %d cap %d, %d occupied", n, len(w.ring), cap(w.ring), w.Occupied())
		}
	}
}

// TestWheelSteadyStateAllocs: Acquire, Commit and Free allocate nothing,
// whether the pool has room, is full, or expires residents.
func TestWheelSteadyStateAllocs(t *testing.T) {
	w := NewWheel(15)
	src := xrand.New(3)
	now := uint64(0)
	if a := testing.AllocsPerRun(10000, func() {
		now += src.Uint64n(3)
		_ = w.Free(now)
		w.Commit(w.Acquire(now) + 1 + src.Uint64n(40))
	}); a != 0 {
		t.Errorf("%v allocations per Free/Acquire/Commit, want 0", a)
	}
}

// TestWheelResetReplay proves Reset restores a freshly-constructed state: a
// wheel that has been run, reset, and re-run produces exactly the grant
// sequence of a brand-new wheel.
func TestWheelResetReplay(t *testing.T) {
	run := func(w *Wheel, seed uint64) []uint64 {
		src := xrand.New(seed)
		var out []uint64
		now := uint64(0)
		for op := 0; op < 5000; op++ {
			now += src.Uint64n(4)
			g := w.Acquire(now)
			out = append(out, g, uint64(w.Free(now)), uint64(w.Occupied()))
			w.Commit(g + 1 + src.Uint64n(6000))
		}
		return out
	}
	w := NewWheel(12)
	run(w, 1) // dirty the wheel with one sequence...
	w.Reset()
	got := run(w, 2) // ...then replay a different one after Reset
	want := run(NewWheel(12), 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay diverged at step %d: reset wheel %d, fresh wheel %d", i, got[i], want[i])
		}
	}
}

// TestCalendarResetReplay proves the O(1) Calendar.Reset restores a
// just-constructed state, including after the ring has grown.
func TestCalendarResetReplay(t *testing.T) {
	tl := new(Timeline)
	run := func(c *Calendar, seed uint64) []uint64 {
		src := xrand.New(seed)
		var out []uint64
		tl.Floor = 0
		at := uint64(0)
		for op := 0; op < 4000; op++ {
			at += src.Uint64n(40)
			tl.Floor = at - min(at, 1000)
			if src.Intn(2) == 0 {
				out = append(out, c.Reserve(at+src.Uint64n(1500)))
			} else {
				out = append(out, c.Peek(at), uint64(c.Load(at)))
			}
		}
		return out
	}
	c := NewCalendar(2, tl)
	run(c, 7)
	grown := c.Cells()
	c.Reset()
	got := run(c, 8)
	want := run(NewCalendar(2, tl), 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay diverged at step %d: reset calendar %d, fresh calendar %d", i, got[i], want[i])
		}
	}
	if grown == minCells || c.Cells() < grown {
		t.Errorf("ring sizes: %d after the first run, %d after reset and replay; want growth that Reset keeps", grown, c.Cells())
	}
	if tl.Fault != nil {
		t.Errorf("fault on a floor-respecting sequence: %v", tl.Fault)
	}
}

// BenchmarkWheelSteadyState measures the wheel's per-operation cost in the
// pattern the core uses (free-scan, acquire, commit) and asserts zero
// steady-state allocations.
func BenchmarkWheelSteadyState(b *testing.B) {
	w := NewWheel(15)
	b.ReportAllocs()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now++
		_ = w.Free(now)
		g := w.Acquire(now)
		w.Commit(g + 12)
	}
}

func BenchmarkHeapSteadyState(b *testing.B) {
	h := NewHeap(15)
	b.ReportAllocs()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now++
		_ = h.Free(now)
		g := h.Acquire(now)
		h.Commit(g + 12)
	}
}
