package workload

import (
	"math"
	"testing"

	"hetwire/internal/bpred"
	"hetwire/internal/cache"
	"hetwire/internal/narrow"
	"hetwire/internal/trace"
)

// sample draws n instructions from a generator.
func sample(p Profile, n int) []trace.Instr {
	g := NewGenerator(p)
	out := make([]trace.Instr, n)
	var ins trace.Instr
	for i := 0; i < n; i++ {
		if !g.Next(&ins) {
			panic("generator ended")
		}
		out[i] = ins
	}
	return out
}

// TestDeterminism: two generators with the same profile produce identical
// streams.
func TestDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	a := sample(p, 5000)
	b := sample(p, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at instruction %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestInstructionMixMatchesProfile: dynamic fractions land near the profile
// parameters for every benchmark.
func TestInstructionMixMatchesProfile(t *testing.T) {
	for _, p := range SPEC2K() {
		instrs := sample(p, 60000)
		var loads, stores, branches, fp int
		for _, ins := range instrs {
			switch ins.Op {
			case trace.Load:
				loads++
			case trace.Store:
				stores++
			case trace.Branch:
				branches++
			case trace.FPALU, trace.FPMul:
				fp++
			}
		}
		n := float64(len(instrs))
		if got := float64(loads) / n; math.Abs(got-p.FracLoad) > 0.08 {
			t.Errorf("%s: load fraction %.3f, profile %.3f", p.Name, got, p.FracLoad)
		}
		if got := float64(stores) / n; math.Abs(got-p.FracStore) > 0.08 {
			t.Errorf("%s: store fraction %.3f, profile %.3f", p.Name, got, p.FracStore)
		}
		if got := float64(branches) / n; math.Abs(got-p.FracBranch) > 0.08 {
			t.Errorf("%s: branch fraction %.3f, profile %.3f", p.Name, got, p.FracBranch)
		}
	}
}

// TestBranchStreamIsPredictable: feeding the generated branch stream to the
// real combining predictor must give realistic SPEC-like accuracy — above
// 80% everywhere, and integer-branchy codes below 99.9% (not trivially
// predictable).
func TestBranchStreamIsPredictable(t *testing.T) {
	for _, name := range []string{"gcc", "gzip", "mcf", "swim", "mesa"} {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		pr := bpred.New(bpred.Config{
			BimodalSize: 16384, L1Size: 16384, HistoryBits: 12,
			L2Size: 16384, ChooserSize: 16384, BTBSets: 16384, BTBAssoc: 2, RASEntries: 32,
		})
		g := NewGenerator(p)
		var ins trace.Instr
		for i := 0; i < 200000; i++ {
			g.Next(&ins)
			if ins.Op == trace.Branch {
				pr.UpdateDirection(ins.PC, ins.Taken)
			}
		}
		acc := pr.Accuracy()
		if acc < 0.80 || acc > 0.999 {
			t.Errorf("%s: branch accuracy %.4f outside realistic range [0.80, 0.999]", name, acc)
		}
	}
}

// TestMemoryStreamMissRates: the generated address streams must drive the
// real cache model to sensible miss rates — near zero for cache-friendly
// codes, substantial for mcf/art.
func TestMemoryStreamMissRates(t *testing.T) {
	missRate := func(name string) float64 {
		p, _ := ByName(name)
		c := cache.New(cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 4, Latency: 6}, nil)
		g := NewGenerator(p)
		var ins trace.Instr
		for i := 0; i < 300000; i++ {
			g.Next(&ins)
			if ins.Op.IsMem() {
				c.Lookup(ins.Addr)
			}
		}
		return c.MissRate()
	}
	friendly := missRate("eon")
	hostile := missRate("mcf")
	if friendly > 0.10 {
		t.Errorf("eon L1 miss rate %.3f, want < 0.10", friendly)
	}
	if hostile < 0.15 {
		t.Errorf("mcf L1 miss rate %.3f, want > 0.15", hostile)
	}
	if hostile < friendly*2 {
		t.Errorf("mcf (%.3f) should miss far more than eon (%.3f)", hostile, friendly)
	}
}

// TestNarrowFractionTracksProfile: the dynamic fraction of narrow integer
// results follows the profile's NarrowFrac knob, and the stream keeps per-PC
// width behaviour stable enough for the 2-bit predictor (>= 85% coverage).
func TestNarrowFractionTracksProfile(t *testing.T) {
	p, _ := ByName("gzip") // NarrowFrac 0.30
	pred := narrow.NewPredictor(8192)
	g := NewGenerator(p)
	var ins trace.Instr
	producers, narrows := 0, 0
	for i := 0; i < 200000; i++ {
		g.Next(&ins)
		if ins.Dest == trace.NoReg || ins.Op.IsFP() {
			continue
		}
		producers++
		isN := narrow.IsNarrow(ins.Value, 10)
		if isN {
			narrows++
		}
		pred.Record(ins.PC, isN)
	}
	frac := float64(narrows) / float64(producers)
	if math.Abs(frac-p.NarrowFrac) > 0.12 {
		t.Errorf("narrow fraction %.3f, profile %.3f", frac, p.NarrowFrac)
	}
	if cov := pred.Coverage(); cov < 0.85 {
		t.Errorf("narrow predictor coverage %.3f on synthetic stream, want >= 0.85", cov)
	}
	if fnr := pred.FalseNarrowRate(); fnr > 0.05 {
		t.Errorf("false-narrow rate %.3f, want <= 0.05", fnr)
	}
}

// TestDependenceDistanceKnob: a higher DepP concentrates dependences on the
// immediately preceding producers (tighter chains). Measured as the share
// of register sources whose writer is within the last four instructions.
func TestDependenceDistanceKnob(t *testing.T) {
	tightShare := func(depP float64) float64 {
		p, _ := ByName("gcc")
		p.DepP = depP
		g := NewGenerator(p)
		var ins trace.Instr
		lastWrite := map[int16]int{}
		near, n := 0, 0
		for i := 0; i < 100000; i++ {
			g.Next(&ins)
			for _, src := range []int16{ins.Src1, ins.Src2} {
				if src == trace.NoReg {
					continue
				}
				if w, ok := lastWrite[src]; ok {
					n++
					if i-w <= 4 {
						near++
					}
				}
			}
			if ins.Dest != trace.NoReg {
				lastWrite[ins.Dest] = i
			}
		}
		return float64(near) / float64(n)
	}
	tight := tightShare(0.85)
	loose := tightShare(0.3)
	if tight <= loose {
		t.Errorf("dependence knob inverted: tight share %.3f <= loose share %.3f", tight, loose)
	}
}

// TestPCsAndTargetsConsistent: branch targets point at real block starts and
// PCs advance by 4 within a block.
func TestPCsAndTargetsConsistent(t *testing.T) {
	p, _ := ByName("crafty")
	g := NewGeneratorUncached(p)
	starts := map[uint64]bool{}
	for _, b := range g.blocks {
		starts[b.pc] = true
	}
	var ins trace.Instr
	var prev trace.Instr
	for i := 0; i < 50000; i++ {
		g.Next(&ins)
		if i > 0 && prev.Op == trace.Branch {
			if prev.Taken && !starts[ins.PC] {
				t.Fatalf("taken branch led to non-block-start PC %#x", ins.PC)
			}
			if prev.Taken && ins.PC != prev.Target {
				t.Fatalf("taken branch target %#x but next PC %#x", prev.Target, ins.PC)
			}
			if !prev.Taken && ins.PC != prev.PC+4 && !starts[ins.PC] {
				t.Fatalf("fall-through went to %#x from branch at %#x", ins.PC, prev.PC)
			}
		} else if i > 0 && ins.PC != prev.PC+4 {
			t.Fatalf("non-branch PC discontinuity: %#x -> %#x", prev.PC, ins.PC)
		}
		prev = ins
	}
}

// TestAllProfilesPresent: the paper's 23-benchmark subset, by name.
func TestAllProfilesPresent(t *testing.T) {
	want := []string{
		"ammp", "applu", "apsi", "art", "bzip2", "crafty", "eon", "equake",
		"fma3d", "galgel", "gap", "gcc", "gzip", "lucas", "mcf", "mesa",
		"mgrid", "parser", "swim", "twolf", "vortex", "vpr", "wupwise",
	}
	got := Names()
	if len(got) != 23 {
		t.Fatalf("have %d profiles, want 23", len(got))
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("profile %d = %s, want %s", i, got[i], name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a nonexistent benchmark")
	}
}

// TestStoresHaveAddressesLoadsHaveValues: structural sanity of the records.
func TestStoresHaveAddressesLoadsHaveValues(t *testing.T) {
	p, _ := ByName("vortex")
	for _, ins := range sample(p, 20000) {
		switch ins.Op {
		case trace.Load:
			if ins.Addr == 0 || ins.Dest == trace.NoReg {
				t.Fatalf("malformed load: %+v", ins)
			}
		case trace.Store:
			if ins.Addr == 0 || ins.Dest != trace.NoReg || ins.Src2 == trace.NoReg {
				t.Fatalf("malformed store: %+v", ins)
			}
		case trace.Branch:
			if ins.Dest != trace.NoReg || ins.Target == 0 {
				t.Fatalf("malformed branch: %+v", ins)
			}
		}
		if ins.Addr != 0 && ins.Addr%8 != 0 {
			t.Fatalf("unaligned address %#x", ins.Addr)
		}
	}
}

// TestKernelCharacteristics: each microbenchmark kernel expresses the
// behaviour it is named for.
func TestKernelCharacteristics(t *testing.T) {
	missRateOf := func(p Profile) float64 {
		c := cache.New(cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 4, Latency: 6}, nil)
		g := NewGenerator(p)
		var ins trace.Instr
		for i := 0; i < 200000; i++ {
			g.Next(&ins)
			if ins.Op.IsMem() {
				c.Lookup(ins.Addr)
			}
		}
		return c.MissRate()
	}
	braccOf := func(p Profile) float64 {
		pr := bpred.New(bpred.Config{
			BimodalSize: 16384, L1Size: 16384, HistoryBits: 12,
			L2Size: 16384, ChooserSize: 16384, BTBSets: 16384, BTBAssoc: 2, RASEntries: 32,
		})
		g := NewGenerator(p)
		var ins trace.Instr
		for i := 0; i < 200000; i++ {
			g.Next(&ins)
			if ins.Op == trace.Branch {
				pr.UpdateDirection(ins.PC, ins.Taken)
			}
		}
		return pr.Accuracy()
	}

	chase, _ := KernelByName("pchase")
	aluK, _ := KernelByName("alu")
	storm, _ := KernelByName("brstorm")

	if mr := missRateOf(chase); mr < 0.3 {
		t.Errorf("pchase L1 miss rate %.2f, want memory-hostile (> 0.3)", mr)
	}
	if mr := missRateOf(aluK); mr > 0.05 {
		t.Errorf("alu kernel L1 miss rate %.2f, want cache-resident (< 0.05)", mr)
	}
	if acc := braccOf(storm); acc > 0.92 {
		t.Errorf("brstorm branch accuracy %.3f, want hard-to-predict (< 0.92)", acc)
	}
	if acc := braccOf(aluK); acc < 0.93 {
		t.Errorf("alu kernel branch accuracy %.3f, want predictable (> 0.93)", acc)
	}
	if len(Kernels()) < 5 {
		t.Error("kernel set shrank")
	}
	if _, ok := KernelByName("nope"); ok {
		t.Error("KernelByName invented a kernel")
	}
}

// TestLookupsAllocateNothing: ByName and KernelByName scan tables built
// once, so looking a program up (every request validation does) allocates
// nothing, and each returns the same profile its builder does.
func TestLookupsAllocateNothing(t *testing.T) {
	for _, p := range append(SPEC2K(), Kernels()...) {
		got, ok := ByName(p.Name)
		if !ok {
			got, ok = KernelByName(p.Name)
		}
		if !ok || got != p {
			t.Fatalf("lookup of %s = %+v, %v; want %+v", p.Name, got, ok, p)
		}
	}
	if n := testing.AllocsPerRun(100, func() { lookedUp, _ = ByName("vortex") }); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { lookedUp, _ = KernelByName("brstorm") }); n != 0 {
		t.Errorf("KernelByName allocates %v times per call, want 0", n)
	}
}

// lookedUp keeps the lookups' results live, as a caller's would be.
var lookedUp Profile
