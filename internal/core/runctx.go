package core

import (
	"context"
	"fmt"

	"hetwire/internal/config"
	"hetwire/internal/sched"
	"hetwire/internal/trace"
)

// CtxCheckInterval is the number of committed instructions between context
// polls in RunContext and RunMultiprogramContext. The check touches no
// simulator state, so results are bit-identical to the uncancelled path; the
// interval is large enough that the poll amortizes to noise on the hot loop
// (each step costs hundreds of nanoseconds, so 8192 steps dwarf two atomic
// loads) yet small enough that cancellation latency stays in the low
// milliseconds at observed simulation speeds.
const CtxCheckInterval = 8192

// NoProgressError is the forward-progress watchdog's diagnostic: the commit
// frontier failed to advance across a full check window. With a finite
// commit width (Table 1: 8/cycle) a window of CtxCheckInterval committed
// instructions must span at least CtxCheckInterval/CommitWidth cycles, so a
// flat frontier means the timing state is corrupt (or a fault was injected);
// aborting with diagnostics beats spinning forever on a cyclic stream or
// reporting garbage statistics.
type NoProgressError struct {
	// Committed is how many instructions the run had retired when the
	// watchdog fired.
	Committed uint64
	// Cycle is the stuck commit-frontier cycle.
	Cycle uint64
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("core: no forward progress: commit frontier stuck at cycle %d after %d instructions (%d-instruction watchdog window)",
		e.Cycle, e.Committed, uint64(CtxCheckInterval))
}

// checkProgress is the watchdog predicate: given the commit frontier at the
// previous window boundary, it returns a diagnostic error when the frontier
// has not advanced. Split out so the invariant is unit-testable without
// constructing a corrupted stream.
func (p *Processor) checkProgress(prevFrontier, committed uint64) error {
	if p.lastCommit == prevFrontier {
		return &NoProgressError{Committed: committed, Cycle: p.lastCommit}
	}
	return nil
}

// CalendarError reports a run whose timing stopped being exact: one of the
// machine's calendars recorded a sched.Fault, either a live collision in a
// ring already at sched.MaxCells cells or a query below the calendar's
// floor (a broken engine invariant). The run's statistics cannot be trusted,
// so it fails instead of reporting them as a result.
type CalendarError struct {
	// Committed is how many instructions the run had retired when the fault
	// was found (it happened within the preceding check window).
	Committed uint64
	sched.Fault
}

func (e *CalendarError) Error() string {
	return fmt.Sprintf("core: calendar fault found after %d instructions: %v", e.Committed, e.Fault)
}

// checkCalendars returns a CalendarError for the first fault recorded on
// the processor's timeline or its fabric's (network and memory).
func (p *Processor) checkCalendars(committed uint64) error {
	f := p.tl.Fault
	if f == nil {
		f = p.fabric.Fault
	}
	if f == nil {
		return nil
	}
	return &CalendarError{Committed: committed, Fault: *f}
}

// RunContext simulates up to n instructions from the stream, polling ctx
// every CtxCheckInterval committed instructions and running the
// forward-progress watchdog and the calendar check at the same cadence and
// at the end. On cancellation or abort it finalizes and returns the partial
// statistics together with the error; a nil error means the run completed
// (or the stream ended). The simulated behaviour is bit-identical to Run for
// any run that completes.
func (p *Processor) RunContext(ctx context.Context, src trace.Stream, n uint64) (Stats, error) {
	var ins trace.Instr
	prevFrontier := p.lastCommit
	var i uint64
	for ; i < n; i++ {
		if i&(CtxCheckInterval-1) == 0 && i != 0 {
			if err := ctx.Err(); err != nil {
				return p.finish(err)
			}
			if err := p.checkProgress(prevFrontier, i); err != nil {
				return p.finish(err)
			}
			if err := p.checkCalendars(i); err != nil {
				return p.finish(err)
			}
			prevFrontier = p.lastCommit
			if p.probe != nil {
				p.emitProbe(false)
			}
		}
		if !src.Next(&ins) {
			break
		}
		p.step(&ins)
	}
	return p.finish(p.checkCalendars(i))
}

// finish finalizes the run, emits the probe's final sample (partial counts
// on an aborted run), and returns the statistics with the given error.
func (p *Processor) finish(err error) (Stats, error) {
	p.finalize()
	if p.probe != nil {
		p.emitProbe(true)
	}
	return p.s, err
}

// RunMultiprogramContext is RunMultiprogram with cooperative cancellation
// and the forward-progress watchdog: ctx is polled every CtxCheckInterval
// total committed instructions (across all threads), and the minimum commit
// frontier over the still-active threads must advance between polls. On
// abort the partial per-thread results are returned alongside the error.
func RunMultiprogramContext(ctx context.Context, cfg config.Config, streams []trace.Stream, n uint64) ([]ThreadResult, error) {
	if len(streams) == 0 {
		return nil, nil
	}
	total := cfg.Topology.Clusters()
	if len(streams) > total {
		panic("core: more threads than clusters")
	}
	per := total / len(streams)
	fab := NewSharedFabric(cfg)

	procs := make([]*Processor, len(streams))
	out := make([]ThreadResult, len(streams))
	for i := range streams {
		clusters := make([]int, per)
		for j := range clusters {
			clusters[j] = i*per + j
		}
		procs[i] = NewOnFabric(cfg, fab, clusters)
		out[i].Clusters = clusters
	}

	finish := func(err error) ([]ThreadResult, error) {
		for i, p := range procs {
			p.finalize()
			out[i].Stats = p.s
		}
		return out, err
	}
	checkCalendars := func(committed uint64) error {
		for _, p := range procs {
			if err := p.checkCalendars(committed); err != nil {
				return err
			}
		}
		return nil
	}

	remaining := make([]uint64, len(streams))
	for i := range remaining {
		remaining[i] = n
	}
	var ins trace.Instr
	active := len(streams)
	var stepped uint64
	prevFrontier := uint64(0)
	havePrev := false
	for active > 0 {
		if stepped&(CtxCheckInterval-1) == 0 && stepped != 0 {
			if err := ctx.Err(); err != nil {
				return finish(err)
			}
			frontier := minFrontier(procs, remaining)
			if havePrev && frontier == prevFrontier {
				return finish(&NoProgressError{Committed: stepped, Cycle: frontier})
			}
			if err := checkCalendars(stepped); err != nil {
				return finish(err)
			}
			prevFrontier, havePrev = frontier, true
		}
		// Step the thread whose commit frontier is furthest behind, keeping
		// the shared calendars time-aligned across threads. The shared
		// calendars' floor is the lowest fetch frontier among the threads
		// still running: every thread books at or after its own frontier,
		// each frontier only advances, and a finished thread books nothing.
		pick := -1
		floor := ^uint64(0)
		for i, p := range procs {
			if remaining[i] == 0 {
				continue
			}
			floor = min(floor, p.tl.Floor)
			if pick == -1 || p.lastCommit < procs[pick].lastCommit {
				pick = i
			}
		}
		fab.tl.Floor = floor
		if !streams[pick].Next(&ins) {
			remaining[pick] = 0
			active--
			continue
		}
		procs[pick].step(&ins)
		stepped++
		remaining[pick]--
		if remaining[pick] == 0 {
			active--
		}
	}
	return finish(checkCalendars(stepped))
}

// minFrontier returns the lowest commit frontier among threads that still
// have instructions to run (finished threads no longer advance and must not
// wedge the watchdog).
func minFrontier(procs []*Processor, remaining []uint64) uint64 {
	min := ^uint64(0)
	for i, p := range procs {
		if remaining[i] == 0 {
			continue
		}
		if p.lastCommit < min {
			min = p.lastCommit
		}
	}
	return min
}
