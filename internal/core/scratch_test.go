package core

import (
	"context"
	"reflect"
	"testing"

	"hetwire/internal/config"
	"hetwire/internal/trace"
	"hetwire/internal/workload"
)

// TestProcessorResetReplay pins the Reset contract the scratch pool relies
// on: a reset processor replays a workload with statistics bit-identical to
// a freshly constructed one. Exercised across the interconnect models that
// reach every subsystem Reset touches (L-wire paths, narrow prediction,
// PW steering, the hierarchical ring) and across back-to-back reuse with a
// different workload in between (the batch-sweep access pattern).
func TestProcessorResetReplay(t *testing.T) {
	gcc, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("missing gcc profile")
	}
	mcf, _ := workload.ByName("mcf")
	const n = 20_000

	ring8 := config.Default()
	ring8.Topology = config.HierRing16
	ring8 = ring8.WithModel(config.ModelVIII)

	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"modelI-crossbar4", config.Default()},
		{"modelV-crossbar4", config.Default().WithModel(config.ModelV)},
		{"modelVIII-hierring16", ring8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := New(tc.cfg).Run(workload.NewGenerator(gcc), n)

			p := New(tc.cfg)
			// Dirty the machine with a different workload, then reset and
			// replay: the revived processor must match the fresh run exactly.
			p.Run(workload.NewGenerator(mcf), n)
			p.Reset()
			replay := p.Run(workload.NewGenerator(gcc), n)
			if !reflect.DeepEqual(fresh, replay) {
				t.Errorf("reset replay diverged from fresh run:\nfresh:  %+v\nreplay: %+v", fresh, replay)
			}

			// A second reset cycle (pool reuse is unbounded).
			p.Reset()
			again := p.Run(workload.NewGenerator(gcc), n)
			if !reflect.DeepEqual(fresh, again) {
				t.Errorf("second reset replay diverged from fresh run")
			}
		})
	}
}

// TestAcquireScratchReuse checks the pool round-trip: release then acquire
// with the same configuration revives a processor that produces identical
// results.
func TestAcquireScratchReuse(t *testing.T) {
	cfg := config.Default().WithModel(config.ModelV)
	prof, _ := workload.ByName("swim")
	const n = 15_000

	p1 := AcquireScratch(cfg)
	r1 := p1.Run(workload.NewGenerator(prof), n)
	ReleaseScratch(p1)

	p2 := AcquireScratch(cfg)
	r2 := p2.Run(workload.NewGenerator(prof), n)
	ReleaseScratch(p2)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("pooled rerun diverged:\nfirst:  %+v\nsecond: %+v", r1, r2)
	}
}

// maxPrivateCells is the largest ring among the processor's own calendars.
func maxPrivateCells(p *Processor) int {
	n := max(p.fetchCal.Cells(), p.dispatchCal.Cells(), p.commitCal.Cells())
	for _, cl := range p.clusters {
		for _, fu := range cl.fus {
			n = max(n, fu.Cells())
		}
	}
	return n
}

// TestHistoryIndependence: a run's statistics depend only on its
// configuration and program, not on what ran before. The same scenarios
// give equal results on a fresh machine streaming from a cold build and on
// a pooled machine whose calendar rings grew in an earlier run, replaying
// from a memo that is cold, warm, or over budget.
func TestHistoryIndependence(t *testing.T) {
	ring16 := config.Default().WithModel(config.ModelX)
	ring16.Topology = config.HierRing16
	grower, _ := workload.KernelByName("pchase")
	var progs []workload.Profile
	for _, name := range []string{"gcc", "mcf", "swim"} {
		prof, _ := workload.ByName(name)
		progs = append(progs, prof)
	}
	const n = 20_000
	for _, cfg := range []config.Config{config.Default(), ring16} {
		want := make([]Stats, len(progs))
		for i, prof := range progs {
			want[i] = New(cfg).Run(workload.NewGeneratorUncached(prof), n)
		}
		p := New(cfg)
		p.Run(workload.NewGeneratorUncached(grower), 60_000)
		if cells := maxPrivateCells(p); cells <= 512 {
			t.Fatalf("%v: the grower run left every ring at %d cells", cfg.Model.ID, cells)
		}
		warm := workload.NewCache(1<<30, 1<<30)
		for _, prof := range progs {
			warm.Generator(prof).Next(new(trace.Instr))
		}
		for _, memo := range []struct {
			name  string
			cache func() *workload.Cache
		}{
			{"cold", func() *workload.Cache { return workload.NewCache(1<<30, 1<<30) }},
			{"warm", func() *workload.Cache { return warm }},
			{"over-budget", func() *workload.Cache { return workload.NewCache(1<<30, 1<<19) }},
		} {
			for i, prof := range progs {
				p.Reset()
				got, err := p.RunContext(context.Background(), memo.cache().Generator(prof), n)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%v %s, memo %s: pooled run diverged from a fresh machine", cfg.Model.ID, prof.Name, memo.name)
				}
			}
		}
	}
}
