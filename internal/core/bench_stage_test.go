package core

import (
	"testing"

	"hetwire/internal/config"
	"hetwire/internal/trace"
)

// Per-stage microbenchmarks for the hot pipeline primitives. Each one
// isolates the data structure a stage leans on — rename-register
// acquisition, issue-queue wakeup/select occupancy, the commit-bandwidth
// calendar, and the steering scorer with its cached free-count rows — so a
// layout or scheduling change shows up attributed to a stage instead of
// buried in whole-engine numbers. All of them must run allocation-free in
// steady state; TestStageZeroSteadyStateAllocs pins that.

func benchProcessor() *Processor {
	cfg := config.Default()
	cfg.Topology = config.HierRing16
	return New(cfg.WithModel(config.ModelVIII))
}

// BenchmarkRename is the dispatch-stage rename path: acquire a rename
// register at the dispatch frontier, hold it until a commit-like release.
func BenchmarkRename(b *testing.B) {
	p := benchProcessor()
	regs := p.clusters[0].intRegs
	b.ReportAllocs()
	at := uint64(0)
	for i := 0; i < b.N; i++ {
		at++
		got := regs.Acquire(at)
		regs.Commit(got + 40)
	}
}

// BenchmarkWakeupSelect is the issue-queue residency cycle: an entry is
// selected (acquired) at dispatch, occupies the queue until issue two
// cycles later, and the free-count poll is the wakeup scan the steering
// scorer performs.
func BenchmarkWakeupSelect(b *testing.B) {
	p := benchProcessor()
	iq := p.clusters[0].intIQ
	b.ReportAllocs()
	at := uint64(0)
	for i := 0; i < b.N; i++ {
		at++
		got := iq.Acquire(at)
		iq.Commit(got + 2)
		_ = iq.Free(at)
	}
}

// BenchmarkCommit is the retire-bandwidth calendar: CommitWidth
// reservations per cycle along a monotone frontier, the exact booking
// pattern the commit stage issues. The fetch frontier (the calendar's
// floor) follows the bookings, as it does in a run.
func BenchmarkCommit(b *testing.B) {
	p := benchProcessor()
	width := p.commitCal.Capacity()
	b.ReportAllocs()
	at := uint64(0)
	for i := 0; i < b.N; i++ {
		if i%width == 0 {
			at++
			p.tl.Floor = at
		}
		p.commitCal.Reserve(at)
	}
}

// BenchmarkSteerTable is the full dynamic steering scorer: one fused
// round-robin pass over all 16 clusters reading the cached free-count rows,
// with the per-cycle row refresh included (the cycle advances every call,
// which is the worst case for the cache).
func BenchmarkSteerTable(b *testing.B) {
	p := benchProcessor()
	ins := trace.Instr{Op: trace.IntALU, Src1: 3, Src2: 7, Dest: 9}
	p.candidateClusters() // settle the one-time cluster list
	b.ReportAllocs()
	at := uint64(1)
	for i := 0; i < b.N; i++ {
		_ = p.steer(&ins, at)
		at++
	}
}

// TestStageZeroSteadyStateAllocs asserts the contract the benchmarks
// report: after warmup, none of the stage primitives allocate. The commit
// stage advances the fetch frontier (its calendar's floor) with at, as a
// run does, so its ring never needs to grow.
func TestStageZeroSteadyStateAllocs(t *testing.T) {
	p := benchProcessor()
	regs := p.clusters[0].intRegs
	iq := p.clusters[0].intIQ
	ins := trace.Instr{Op: trace.IntALU, Src1: 3, Src2: 7, Dest: 9}
	p.candidateClusters()
	at := uint64(1)
	stages := []struct {
		name string
		fn   func()
	}{
		{"rename", func() { regs.Commit(regs.Acquire(at) + 40) }},
		{"wakeup-select", func() { iq.Commit(iq.Acquire(at) + 2); iq.Free(at) }},
		{"commit", func() { p.tl.Floor = at; p.commitCal.Reserve(at) }},
		{"steer-table", func() { p.steer(&ins, at) }},
	}
	for _, st := range stages {
		st.fn() // warm any one-time state
		allocs := testing.AllocsPerRun(200, func() {
			at++
			st.fn()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per op in steady state, want 0", st.name, allocs)
		}
	}
}
