package core

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"hetwire/internal/batch"
	"hetwire/internal/bpred"
	"hetwire/internal/cache"
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

// hierRing16 returns the 16-cluster hierarchical ring with the given model.
func hierRing16(id config.ModelID) config.Config {
	cfg := config.Default()
	cfg.Topology = config.HierRing16
	return cfg.WithModel(id)
}

// TestScratchRoundTripAllocs: once a configuration's machine and its Core
// part are pooled, acquiring and releasing them allocates nothing.
func TestScratchRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	cfg := hierRing16(config.ModelX)
	ReleaseScratch(AcquireScratch(cfg))
	if allocs := testing.AllocsPerRun(100, func() { ReleaseScratch(AcquireScratch(cfg)) }); allocs != 0 {
		t.Errorf("a warm AcquireScratch/ReleaseScratch round trip allocates %v times, want 0", allocs)
	}
}

// TestScratchPoolSharesCoreParts: machines of different configurations with
// one Core share Core parts, and every run on a shared part equals a run on
// a new machine, with acquires and releases interleaved across GOMAXPROCS
// goroutines.
func TestScratchPoolSharesCoreParts(t *testing.T) {
	cfgs := []config.Config{config.Default(), hierRing16(config.ModelX), hierRing16(config.ModelVIII)}
	prof, _ := workload.ByName("gcc")
	const n, rounds = 8_000, 6
	want := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = New(cfg).Run(workload.NewGenerator(prof), n)
	}

	var mu sync.Mutex
	served := map[*cache.Hierarchy]map[int]bool{} // part -> configurations it ran
	var wg sync.WaitGroup
	for w := range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				k := (w + r) % len(cfgs)
				p := AcquireScratch(cfgs[k])
				mu.Lock()
				if served[p.mem] == nil {
					served[p.mem] = map[int]bool{}
				}
				served[p.mem][k] = true
				mu.Unlock()
				got := p.Run(workload.NewGenerator(prof), n)
				ReleaseScratch(p)
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("configuration %d, round %d: a pooled run diverged from a new machine", k, r)
				}
			}
		}()
	}
	wg.Wait()
	shared := false
	for _, ks := range served {
		shared = shared || len(ks) > 1
	}
	if !shared {
		t.Errorf("no Core part served more than one configuration (%d parts)", len(served))
	}
}

// TestScratchCoreOverrideOwnParts: a machine whose Core differs from the
// default one never receives a default Core part, even with the free list
// full of them, whether or not the difference sizes the part.
func TestScratchCoreOverrideOwnParts(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	const n = 8_000
	defMem := map[*cache.Hierarchy]bool{}
	defBP := map[*bpred.Predictor]bool{}
	held := make([]*Processor, batch.CPU.Cap())
	for i := range held {
		held[i] = AcquireScratch(config.Default())
		defMem[held[i].mem], defBP[held[i].bp] = true, true
	}
	for _, p := range held {
		ReleaseScratch(p)
	}
	for _, override := range []func(*config.Core){
		func(c *config.Core) { c.L2Latency = 20 },
		func(c *config.Core) { c.ROBSize = 256 },
	} {
		cfg := config.Default()
		override(&cfg.Core)
		p := AcquireScratch(cfg)
		if defMem[p.mem] || defBP[p.bp] {
			t.Errorf("a Core override received a default Core part")
		}
		got := p.Run(workload.NewGenerator(prof), n)
		ReleaseScratch(p)
		if want := New(cfg).Run(workload.NewGenerator(prof), n); !reflect.DeepEqual(got, want) {
			t.Errorf("a Core override's pooled run diverged from a new machine")
		}
	}
}

// cancelAfter is a stream that cancels its run's context once it has
// emitted k instructions.
type cancelAfter struct {
	trace.Stream
	k      int
	cancel context.CancelFunc
}

func (s *cancelAfter) Next(ins *trace.Instr) bool {
	if s.k--; s.k == 0 {
		s.cancel()
	}
	return s.Stream.Next(ins)
}

// TestScratchCancelledRunReturnsPart: a run cancelled mid-way still returns
// its Core part, and the next run on that part, on another configuration
// with the same Core, books on its own timeline and equals a run on a new
// machine.
func TestScratchCancelledRunReturnsPart(t *testing.T) {
	prof, _ := workload.ByName("swim")
	p := AcquireScratch(config.Default().WithModel(config.ModelV))
	mem := p.mem
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfter{Stream: workload.NewGenerator(prof), k: 3 * CtxCheckInterval, cancel: cancel}
	if _, err := p.RunContext(ctx, src, 50*CtxCheckInterval); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ReleaseScratch(p)

	next := hierRing16(config.ModelX)
	q := AcquireScratch(next)
	if q.mem != mem {
		t.Fatal("the next run did not receive the cancelled run's Core part")
	}
	const n = 12_000
	got := q.Run(workload.NewGenerator(prof), n)
	// The part books on q's timeline: a port booking below q's floor is
	// q's fault, not the previous machine's.
	q.mem.DataAccess(0, 0, 0)
	if q.tl.Fault == nil {
		t.Error("the part's port calendars are not on the new machine's timeline")
	}
	ReleaseScratch(q)
	if want := New(next).Run(workload.NewGenerator(prof), n); !reflect.DeepEqual(got, want) {
		t.Errorf("the run after a cancelled one diverged from a new machine")
	}
}

// poolVar reads the hetwire_machine_pool expvar.
func poolVar(t *testing.T) map[string]float64 {
	t.Helper()
	v := expvar.Get("hetwire_machine_pool")
	if v == nil {
		t.Fatal("hetwire_machine_pool not published")
	}
	var out map[string]float64
	if err := json.Unmarshal([]byte(v.String()), &out); err != nil {
		t.Fatalf("expvar payload not JSON: %v", err)
	}
	return out
}

// TestMachinePoolExpvarPublished: the free list's counters are visible to
// the debug listener and stay JSON-encodable.
func TestMachinePoolExpvarPublished(t *testing.T) {
	out := poolVar(t)
	for _, k := range []string{"built", "reused", "dropped", "idle", "idle_bytes"} {
		if _, ok := out[k]; !ok {
			t.Errorf("expvar payload missing %q: %v", k, out)
		}
	}
	if out["idle"] > float64(batch.CPU.Cap()) {
		t.Errorf("%v idle Core parts, want at most %d", out["idle"], batch.CPU.Cap())
	}
}

// TestScratchSweepBuildsFewParts: a sweep over all 20 interconnect
// configurations through batch.Run builds at most one Core part per CPU
// token (GOMAXPROCS at startup), and never holds more idle.
func TestScratchSweepBuildsFewParts(t *testing.T) {
	var cfgs []config.Config
	for _, m := range config.Models() {
		for _, topo := range []config.Topology{config.Crossbar4, config.HierRing16} {
			cfg := config.Default().WithModel(m.ID)
			cfg.Topology = topo
			cfgs = append(cfgs, cfg)
		}
	}
	prof, _ := workload.ByName("gzip")
	before := poolVar(t)
	errs := batch.Run(context.Background(), len(cfgs), 0, func(ctx context.Context, i int) error {
		p := AcquireScratch(cfgs[i])
		defer ReleaseScratch(p)
		_, err := p.RunContext(ctx, workload.NewGenerator(prof), 2_000)
		return err
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	after := poolVar(t)
	if built := after["built"] - before["built"]; built > float64(batch.CPU.Cap()) {
		t.Errorf("a %d-configuration sweep built %v Core parts, want at most %d", len(cfgs), built, batch.CPU.Cap())
	}
	if after["idle"] > float64(batch.CPU.Cap()) {
		t.Errorf("%v idle Core parts, want at most %d", after["idle"], batch.CPU.Cap())
	}
}

// TestPartBytes holds partBytes within 1% of what building a Core part
// allocates, at Table 1 values and with doubled associativities.
func TestPartBytes(t *testing.T) {
	wide := config.DefaultCore()
	wide.L1DAssoc, wide.L2Assoc, wide.BTBAssoc = 8, 16, 4
	for _, c := range []config.Core{config.DefaultCore(), wide} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mem, bp := newHierarchy(c, nil), newPredictor(c)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(mem)
		runtime.KeepAlive(bp)
		got, est := float64(after.TotalAlloc-before.TotalAlloc), float64(partBytes(c))
		if d := (got - est) / got; d < -0.01 || d > 0.01 {
			t.Errorf("partBytes = %.0f, building the part allocated %.0f (off by %.2f%%)", est, got, 100*d)
		}
	}
}

// TestRestPartBytes bounds what building the rest of a machine (everything
// but its Core part) allocates, for every model on both topologies: at most
// 0.15 MiB at 4 clusters and 0.56 MiB at 16. Each pool's release ring takes
// 8 bytes a slot, so the clusters' issue queues and rename registers add
// little to the calendars, network and buffers.
func TestRestPartBytes(t *testing.T) {
	const mib = 1 << 20
	for _, topo := range []struct {
		topo  config.Topology
		bound float64
	}{{config.Crossbar4, 0.15 * mib}, {config.HierRing16, 0.56 * mib}} {
		for _, m := range config.Models() {
			cfg := config.Default().WithModel(m.ID)
			cfg.Topology = topo.topo
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p := newMachine(cfg)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(p)
			if got := float64(after.TotalAlloc - before.TotalAlloc); got > topo.bound {
				t.Errorf("%v on %v: the rest part allocates %.3f MiB, want at most %.2f", m.ID, topo.topo, got/mib, topo.bound/mib)
			}
		}
	}
}
