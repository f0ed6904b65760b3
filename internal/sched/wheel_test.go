package sched

import (
	"testing"

	"hetwire/internal/xrand"
)

// TestWheelHeapDifferential is the equivalence gate for the event-wheel: it
// drives a Wheel and a Heap of the same size through long randomized
// operation sequences that respect the documented monotone-query contract
// (non-decreasing query times; Commit follows Acquire with a release at or
// after the granted cycle) and asserts every observable output — Acquire
// grants, Free counts, Occupied counts — is bit-identical. Release spreads
// are drawn large enough to force the wheel through several ring growths, so
// the growth path is covered too.
func TestWheelHeapDifferential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		slots     int
		maxStep   uint64 // max query-time advance per operation
		maxSpread uint64 // max release - grant distance
	}{
		{"tight", 4, 3, 8},
		{"pipeline-like", 32, 2, 4096},
		{"sparse-queries", 15, 5000, 2000},
		{"forces-growth", 8, 7, 3 * wheelMinWindow},
		{"single-slot", 1, 11, 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := xrand.New(0xD1FF + uint64(tc.slots))
			w := NewWheel(tc.slots)
			h := NewHeap(tc.slots)
			now := uint64(0)
			for op := 0; op < 30000; op++ {
				now += src.Uint64n(tc.maxStep + 1)
				switch src.Intn(4) {
				case 0: // acquire + commit
					gw, gh := w.Acquire(now), h.Acquire(now)
					if gw != gh {
						t.Fatalf("op %d: Acquire(%d): wheel %d, heap %d", op, now, gw, gh)
					}
					release := gh + 1 + src.Uint64n(tc.maxSpread)
					w.Commit(release)
					h.Commit(release)
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
					release := gh + src.Uint64n(tc.maxSpread+1)
					w.Commit(release)
					h.Commit(release)
				}
			}
			if w.Size() != h.Size() {
				t.Fatalf("Size: wheel %d, heap %d", w.Size(), h.Size())
			}
		})
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
	run(w, 1) // dirty the wheel (including growth) with one sequence...
	w.Reset()
	got := run(w, 2) // ...then replay a different one after Reset
	want := run(NewWheel(12), 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay diverged at step %d: reset wheel %d, fresh wheel %d", i, got[i], want[i])
		}
	}
}

// TestCalendarResetReplay proves the watermark-based Calendar.Reset restores
// a just-constructed state, including after window slides.
func TestCalendarResetReplay(t *testing.T) {
	run := func(c *Calendar, seed uint64) []uint64 {
		src := xrand.New(seed)
		var out []uint64
		at := uint64(0)
		for op := 0; op < 4000; op++ {
			at += src.Uint64n(40)
			if src.Intn(2) == 0 {
				out = append(out, c.Reserve(at))
			} else {
				out = append(out, c.Peek(at), uint64(c.Load(at)))
			}
		}
		return append(out, c.Clamped)
	}
	c := NewCalendar(2, 1024)
	run(c, 7)
	c.Reset()
	got := run(c, 8)
	want := run(NewCalendar(2, 1024), 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay diverged at step %d: reset calendar %d, fresh calendar %d", i, got[i], want[i])
		}
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
