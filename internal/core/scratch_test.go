package core

import (
	"reflect"
	"testing"

	"hetwire/internal/config"
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
