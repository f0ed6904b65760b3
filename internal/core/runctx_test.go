package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hetwire/internal/config"
	"hetwire/internal/trace"
	"hetwire/internal/workload"
)

func genFor(t *testing.T, bench string) trace.Stream {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	return workload.NewGenerator(prof)
}

// TestRunContextMatchesRun: the ctx polling must not perturb simulation —
// a completed RunContext is bit-identical to Run (the corpus-level guard
// lives in the root package; this is the unit-level version).
func TestRunContextMatchesRun(t *testing.T) {
	const n = 3 * CtxCheckInterval // cross several check boundaries
	a := New(config.Default()).Run(genFor(t, "gcc"), n)
	b, err := New(config.Default()).RunContext(context.Background(), genFor(t, "gcc"), n)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ctx path diverged from plain Run:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunContextCancel: a pre-cancelled context stops the run within one
// check interval and surfaces ctx's error with partial statistics.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := New(config.Default()).RunContext(ctx, genFor(t, "gzip"), 50*CtxCheckInterval)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The first poll happens at CtxCheckInterval committed instructions.
	if st.Instructions > CtxCheckInterval {
		t.Errorf("ran %d instructions after cancellation, want <= %d", st.Instructions, uint64(CtxCheckInterval))
	}
}

// TestWarmupCancel: a warmup steps on RunContext's loop, so cancelling its
// context mid-warmup stops it within one check interval with ctx's error.
func TestWarmupCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfter{Stream: genFor(t, "gzip"), k: 3 * CtxCheckInterval, cancel: cancel}
	err := New(config.Default()).Warmup(ctx, src, 50*CtxCheckInterval)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// cancelAfter counts down past zero: -k instructions were drawn after
	// the cancel.
	if after := -src.k; after > CtxCheckInterval {
		t.Errorf("warmed %d instructions after cancellation, want <= %d", after, CtxCheckInterval)
	}
}

// TestRunMultiprogramContextCancel: same for the multiprogrammed loop.
func TestRunMultiprogramContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	streams := []trace.Stream{genFor(t, "gcc"), genFor(t, "mcf")}
	res, err := RunMultiprogramContext(ctx, config.Default(), streams, 50*CtxCheckInterval)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var total uint64
	for _, r := range res {
		total += r.Stats.Instructions
	}
	if total > CtxCheckInterval {
		t.Errorf("threads ran %d instructions after cancellation, want <= %d", total, uint64(CtxCheckInterval))
	}
}

// TestRunMultiprogramContextMatches: the ctx multiprogram loop completes
// bit-identically to the legacy path (which now delegates to it — this
// guards the delegation itself against drift).
func TestRunMultiprogramContextMatches(t *testing.T) {
	const n = 2 * CtxCheckInterval
	mk := func() []trace.Stream {
		return []trace.Stream{genFor(t, "gzip"), genFor(t, "swim")}
	}
	a := RunMultiprogram(config.Default(), mk(), n)
	b, err := RunMultiprogramContext(context.Background(), config.Default(), mk(), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Stats, b[i].Stats) {
			t.Fatalf("thread %d diverged", i)
		}
	}
}

// TestWatchdogPredicate: the forward-progress check fires exactly when the
// commit frontier fails to advance across a window, with diagnostics.
func TestWatchdogPredicate(t *testing.T) {
	p := New(config.Default())
	p.lastCommit = 900
	if err := p.checkProgress(800, CtxCheckInterval); err != nil {
		t.Errorf("advancing frontier flagged: %v", err)
	}
	err := p.checkProgress(900, 2*CtxCheckInterval)
	if err == nil {
		t.Fatal("stuck frontier not flagged")
	}
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("error type %T, want *NoProgressError", err)
	}
	if np.Cycle != 900 || np.Committed != 2*CtxCheckInterval {
		t.Errorf("diagnostics = %+v", np)
	}
}

// TestRunPanicsOnCalendarFault: a calendar fault reaches a caller of Run as
// a panic carrying the CalendarError, not as the statistics of a run whose
// timing stopped being exact.
func TestRunPanicsOnCalendarFault(t *testing.T) {
	p := New(config.Default())
	p.tl.Floor = 100
	p.commitCal.Reserve(5) // below the floor: a broken engine invariant
	got := func() (r any) {
		defer func() { r = recover() }()
		p.Run(genFor(t, "gzip"), 2*CtxCheckInterval)
		return nil
	}()
	var ce *CalendarError
	if err, _ := got.(error); !errors.As(err, &ce) || !ce.BelowFloor || ce.Cycle != 5 {
		t.Fatalf("Run panicked with %v, want a CalendarError below the floor at cycle 5", got)
	}
	if ce.Committed != CtxCheckInterval {
		t.Errorf("fault found after %d instructions, want the first check at %d", ce.Committed, CtxCheckInterval)
	}
}

// TestWatchdogQuietOnRealRuns: a long legitimate run must never trip the
// watchdog (commit width is finite, so every window advances the frontier).
func TestWatchdogQuietOnRealRuns(t *testing.T) {
	_, err := New(config.Default()).RunContext(context.Background(), genFor(t, "mcf"), 6*CtxCheckInterval)
	if err != nil {
		t.Fatalf("watchdog fired on a healthy run: %v", err)
	}
}
