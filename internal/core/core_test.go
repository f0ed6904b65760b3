package core

import (
	"context"
	"testing"

	"hetwire/internal/config"
	"hetwire/internal/sched"
	"hetwire/internal/trace"
	"hetwire/internal/wires"
	"hetwire/internal/workload"
)

const testInstrs = 60_000

func runBench(t *testing.T, cfg config.Config, bench string, n uint64) Stats {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	st, err := New(cfg).RunContext(context.Background(), workload.NewGenerator(prof), n)
	if err != nil {
		t.Fatalf("%v on %s: %v", cfg.Model.ID, bench, err)
	}
	return st
}

// TestDeterminism: identical configuration and workload give bit-identical
// statistics.
func TestDeterminism(t *testing.T) {
	a := runBench(t, config.Default(), "gcc", 20_000)
	b := runBench(t, config.Default(), "gcc", 20_000)
	if a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts || a.Net != b.Net {
		t.Fatalf("nondeterministic run: %+v vs %+v", a, b)
	}
}

// TestBasicSanity: IPC in a physical range, cycles consistent, every
// instruction committed.
func TestBasicSanity(t *testing.T) {
	st := runBench(t, config.Default(), "mesa", testInstrs)
	if st.Instructions != testInstrs {
		t.Fatalf("committed %d instructions, want %d", st.Instructions, testInstrs)
	}
	if ipc := st.IPC(); ipc <= 0.05 || ipc > 8 {
		t.Fatalf("IPC %.3f outside physical range", ipc)
	}
	if st.Branches == 0 || st.Loads == 0 || st.Stores == 0 {
		t.Fatal("instruction classes missing from the run")
	}
	if st.BranchAccuracy < 0.5 || st.BranchAccuracy > 1 {
		t.Fatalf("branch accuracy %.3f out of range", st.BranchAccuracy)
	}
}

// TestMemoryBoundBenchmarksAreSlower: the Figure 3 ordering at its
// coarsest: mcf must be far slower than the cache-resident codes.
func TestMemoryBoundBenchmarksAreSlower(t *testing.T) {
	mcf := runBench(t, config.Default(), "mcf", testInstrs)
	mesa := runBench(t, config.Default(), "mesa", testInstrs)
	if mcf.IPC() > 0.6*mesa.IPC() {
		t.Errorf("mcf IPC %.3f should be well below mesa IPC %.3f", mcf.IPC(), mesa.IPC())
	}
}

// TestLWireTechniquesImprovePerformance: adding an L-wire layer plus the
// Section 4 low-latency techniques must raise IPC (paper Figure 3).
func TestLWireTechniquesImprovePerformance(t *testing.T) {
	lw := config.Default()
	lw.Model.Link.LWires = 18
	lw.Tech = config.AllTechniques()
	lw.Tech.PWReadyOperands = false
	lw.Tech.PWStoreData = false
	lw.Tech.PWLoadBalance = false

	for _, bench := range []string{"gcc", "mesa", "swim"} {
		base := runBench(t, config.Default(), bench, testInstrs)
		fast := runBench(t, lw, bench, testInstrs)
		if fast.IPC() <= base.IPC() {
			t.Errorf("%s: L-wire techniques did not help (%.3f -> %.3f)", bench, base.IPC(), fast.IPC())
		}
		if fast.Net[2].Transfers == 0 {
			t.Errorf("%s: no L-plane traffic despite enabled techniques", bench)
		}
	}
}

// TestDoubledLatencyHurts: the Section 1 sensitivity claim, directionally.
func TestDoubledLatencyHurts(t *testing.T) {
	slow := config.Default()
	slow.LatencyScale = 2
	for _, bench := range []string{"eon", "gzip"} {
		base := runBench(t, config.Default(), bench, testInstrs)
		s2 := runBench(t, slow, bench, testInstrs)
		if s2.IPC() >= base.IPC() {
			t.Errorf("%s: doubling latency did not hurt (%.3f -> %.3f)", bench, base.IPC(), s2.IPC())
		}
	}
}

// TestPWOnlyInterconnectIsSlower: Model II (all PW, 3-cycle) must not beat
// Model I (B, 2-cycle) even with twice the bandwidth (paper Table 3: 0.92
// vs 0.95).
func TestPWOnlyInterconnectIsSlower(t *testing.T) {
	base := runBench(t, config.Default(), "gzip", testInstrs)
	ii := runBench(t, config.Default().WithModel(config.ModelII), "gzip", testInstrs)
	if ii.IPC() > base.IPC()*1.005 {
		t.Errorf("Model II IPC %.3f should not exceed Model I %.3f", ii.IPC(), base.IPC())
	}
	if ii.Net[0].Transfers != 0 {
		t.Error("Model II must carry no B traffic")
	}
}

// TestMoreBandwidthNeverHurts: Model IV (288 B) must be at least as fast as
// Model I (144 B).
func TestMoreBandwidthNeverHurts(t *testing.T) {
	for _, bench := range []string{"mesa", "swim"} {
		base := runBench(t, config.Default(), bench, testInstrs)
		iv := runBench(t, config.Default().WithModel(config.ModelIV), bench, testInstrs)
		if iv.IPC() < base.IPC()*0.995 {
			t.Errorf("%s: Model IV IPC %.3f below Model I %.3f", bench, iv.IPC(), base.IPC())
		}
		if iv.WaitCycles >= base.WaitCycles {
			t.Errorf("%s: doubling bandwidth did not reduce contention (%d -> %d)",
				bench, base.WaitCycles, iv.WaitCycles)
		}
	}
}

// TestPWSteeringDivertsTraffic: under Model V the three Section 4 criteria
// must move a substantial fraction of traffic to PW wires with only a small
// IPC cost (paper: 36% of transfers, 1% slowdown).
func TestPWSteeringDivertsTraffic(t *testing.T) {
	iv := runBench(t, config.Default().WithModel(config.ModelIV), "vortex", testInstrs)
	v := runBench(t, config.Default().WithModel(config.ModelV), "vortex", testInstrs)

	var total uint64
	for i := range v.Net {
		total += v.Net[i].Transfers
	}
	pwShare := float64(v.Net[1].Transfers) / float64(total)
	if pwShare < 0.10 || pwShare > 0.80 {
		t.Errorf("PW share of traffic = %.2f, want a substantial fraction", pwShare)
	}
	if v.StoreDataPW == 0 || v.ReadyOperandPW == 0 {
		t.Error("PW steering criteria never fired")
	}
	if v.IPC() < iv.IPC()*0.93 {
		t.Errorf("PW steering cost too much: %.3f vs %.3f", v.IPC(), iv.IPC())
	}
}

// TestSixteenClusters: the hierarchical topology runs and extracts more ILP
// from high-ILP codes than 4 clusters (paper: +17% average).
func TestSixteenClusters(t *testing.T) {
	cfg := config.Default()
	cfg.Topology = config.HierRing16
	for _, bench := range []string{"galgel", "mesa"} {
		four := runBench(t, config.Default(), bench, testInstrs)
		sixteen := runBench(t, cfg, bench, testInstrs)
		if sixteen.IPC() < four.IPC()*0.95 {
			t.Errorf("%s: 16 clusters (%.3f) should not be clearly slower than 4 (%.3f)",
				bench, sixteen.IPC(), four.IPC())
		}
	}
}

// TestPartialAddressFalseDependences: with 8 LS bits the false-dependence
// rate must be small (paper: <9% of loads).
func TestPartialAddressFalseDependences(t *testing.T) {
	cfg := config.Default().WithModel(config.ModelVII)
	st := runBench(t, cfg, "vortex", testInstrs)
	if st.PartialChecks == 0 {
		t.Fatal("partial-address pipeline never engaged")
	}
	rate := float64(st.PartialFalseDeps) / float64(st.PartialChecks)
	if rate > 0.09 {
		t.Errorf("false-dependence rate %.3f, want < 0.09 (paper)", rate)
	}
}

// TestFewerLSBitsMoreFalseDeps: the ablation direction — shrinking the
// partial comparison width increases false dependences.
func TestFewerLSBitsMoreFalseDeps(t *testing.T) {
	rate := func(bits int) float64 {
		cfg := config.Default().WithModel(config.ModelVII)
		cfg.Tech.LSBits = bits
		st := runBench(t, cfg, "vortex", testInstrs)
		if st.PartialChecks == 0 {
			t.Fatal("no partial checks")
		}
		return float64(st.PartialFalseDeps) / float64(st.PartialChecks)
	}
	if r4, r12 := rate(4), rate(12); r4 < r12 {
		t.Errorf("4 LS bits (%.4f) should alias more than 12 (%.4f)", r4, r12)
	}
}

// TestNarrowOracleBeatsPredictorBeatsNothing: oracle narrow knowledge >=
// predictor >= baseline on L-wire traffic volume.
func TestNarrowOracleBeatsPredictorBeatsNothing(t *testing.T) {
	pred := config.Default().WithModel(config.ModelVII)
	oracle := pred
	oracle.Tech.NarrowOracle = true

	sPred := runBench(t, pred, "gzip", testInstrs)
	sOracle := runBench(t, oracle, "gzip", testInstrs)
	if sOracle.NarrowTransfers < sPred.NarrowTransfers {
		t.Errorf("oracle sent fewer narrow transfers (%d) than the predictor (%d)",
			sOracle.NarrowTransfers, sPred.NarrowTransfers)
	}
	if sOracle.NarrowMispredicted != 0 {
		t.Errorf("oracle mispredicted %d narrow values", sOracle.NarrowMispredicted)
	}
	if sPred.NarrowTransfers > 0 {
		falseRate := float64(sPred.NarrowMispredicted) / float64(sPred.NarrowTransfers+sPred.NarrowMispredicted)
		if falseRate > 0.05 {
			t.Errorf("predictor false-narrow transfer rate %.3f, want <= 0.05 (paper: 2%%)", falseRate)
		}
	}
}

// TestMispredictSignalOnLWiresHelps: the branch-ID-on-L-wires technique in
// isolation must not slow anything down and should help branchy codes.
func TestMispredictSignalOnLWiresHelps(t *testing.T) {
	cfg := config.Default()
	cfg.Model.Link.LWires = 18
	cfg.Tech = config.Techniques{MispredictOnL: true}
	base := runBench(t, config.Default(), "gcc", testInstrs)
	fast := runBench(t, cfg, "gcc", testInstrs)
	if fast.IPC() < base.IPC() {
		t.Errorf("mispredict-on-L slowed gcc: %.3f -> %.3f", base.IPC(), fast.IPC())
	}
}

// TestRunStopsOnStreamEnd: a finite stream ends the run early.
func TestRunStopsOnStreamEnd(t *testing.T) {
	src := &trace.SliceStream{Instrs: []trace.Instr{
		{PC: 0x1000, Op: trace.IntALU, Src1: trace.NoReg, Src2: trace.NoReg, Dest: 1},
		{PC: 0x1004, Op: trace.IntALU, Src1: 1, Src2: trace.NoReg, Dest: 2},
	}}
	st := New(config.Default()).Run(src, 100)
	if st.Instructions != 2 {
		t.Fatalf("ran %d instructions, want 2", st.Instructions)
	}
	if st.Cycles == 0 {
		t.Fatal("zero cycles for a non-empty run")
	}
}

// TestDependentPairTiming: a two-instruction dependence executes in order
// with a plausible gap.
func TestDependentPairTiming(t *testing.T) {
	src := &trace.SliceStream{Instrs: []trace.Instr{
		{PC: 0x1000, Op: trace.IntMul, Src1: trace.NoReg, Src2: trace.NoReg, Dest: 1},
		{PC: 0x1004, Op: trace.IntALU, Src1: 1, Src2: trace.NoReg, Dest: 2},
	}}
	st := New(config.Default()).Run(src, 2)
	// The dependent pair needs at least the multiply latency beyond the
	// pipeline fill.
	minCycles := uint64(frontDepth + trace.IntMul.Latency() + 1)
	if st.Cycles < minCycles {
		t.Errorf("dependent pair finished in %d cycles, want >= %d", st.Cycles, minCycles)
	}
}

// TestInvalidConfigPanics: core.New guards its inputs.
func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid config")
		}
	}()
	bad := config.Default()
	bad.Core.ROBSize = 0
	New(bad)
}

// TestStatsAccounting: derived counters are internally consistent.
func TestStatsAccounting(t *testing.T) {
	st := runBench(t, config.Default().WithModel(config.ModelX), "twolf", testInstrs)
	if st.NarrowTransfers+st.NarrowMispredicted > st.OperandTransfers {
		t.Error("narrow transfers exceed total operand transfers")
	}
	var netTransfers uint64
	for i := range st.Net {
		netTransfers += st.Net[i].Transfers
	}
	// Every operand transfer and memory message rides the network at least
	// once; network transfers must dominate operand transfers.
	if netTransfers < st.OperandTransfers {
		t.Error("network transfer count below operand transfer count")
	}
	if st.Cycles == 0 || st.IPC() == 0 {
		t.Error("missing cycle accounting")
	}
	if st.LinkInventory == nil || len(st.LinkInventory) == 0 {
		t.Error("missing link inventory")
	}
}

// TestFUCountsAreModelled: each cluster's functional-unit calendars take
// their configured counts, so a second integer ALU per cluster shortens the
// issue wait of an ALU-bound kernel.
func TestFUCountsAreModelled(t *testing.T) {
	prof, _ := workload.KernelByName("alu")
	run := func(cfg config.Config) Stats {
		st, err := New(cfg).RunContext(context.Background(), workload.NewGenerator(prof), 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	one := run(config.Default())
	cfg := config.Default()
	cfg.Core.IntALUs = 2
	two := run(cfg)
	if one.SumFUWait == 0 || two.SumFUWait >= one.SumFUWait {
		t.Errorf("FU wait with 2 int ALUs = %d, with 1 = %d; want it lower", two.SumFUWait, one.SumFUWait)
	}
}

// TestFrequentValueCompaction: with the extension on, repeated wide values
// ride L-wires. On value-heavy codes it must not hurt (the adaptive send
// buffer falls back to B when the L plane is busy); memory-op-heavy codes
// like vortex can lose slightly to L-plane sharing with address LS bits,
// which EXPERIMENTS.md reports.
func TestFrequentValueCompaction(t *testing.T) {
	base := config.Default().WithModel(config.ModelVII)
	fv := base
	fv.Tech.FrequentValueEnc = true

	sBase := runBench(t, base, "gzip", testInstrs)
	sFV := runBench(t, fv, "gzip", testInstrs)
	if sFV.FVTransfers == 0 {
		t.Fatal("frequent-value encoding never fired")
	}
	if sBase.FVTransfers != 0 {
		t.Fatal("FV transfers counted with the extension off")
	}
	if sFV.IPC() < sBase.IPC()*0.995 {
		t.Errorf("FV compaction slowed gzip: %.3f -> %.3f", sBase.IPC(), sFV.IPC())
	}
}

// TestCriticalWordOnL: L2/memory loads with narrow values return on
// L-wires; the technique needs L wires and never fires for L1 hits only.
func TestCriticalWordOnL(t *testing.T) {
	cfg := config.Default().WithModel(config.ModelVII)
	cfg.Tech.CriticalWordOnL = true
	st := runBench(t, cfg, "mcf", testInstrs) // plenty of L2/memory misses
	if st.CriticalWordOnL == 0 {
		t.Fatal("critical-word returns never fired on a memory-bound benchmark")
	}
	if st.CriticalWordOnL > st.Loads {
		t.Fatal("more critical-word returns than loads")
	}
}

// TestExtensionsRequireLWires: validation rejects extensions on L-less
// interconnects.
func TestExtensionsRequireLWires(t *testing.T) {
	cfg := config.Default() // Model I: no L wires
	cfg.Tech.FrequentValueEnc = true
	if cfg.Validate() == nil {
		t.Error("frequent-value encoding accepted without L wires")
	}
}

// TestWarmupResetsStatsKeepsState: measured statistics after a warmup
// reflect only the measured region, and warmed structures make the measured
// region faster than a cold run of the same length.
func TestWarmupResetsStatsKeepsState(t *testing.T) {
	prof, _ := workload.ByName("gcc")

	cold := New(config.Default()).Run(workload.NewGenerator(prof), 30_000)

	warm := New(config.Default())
	gen := workload.NewGenerator(prof)
	if err := warm.Warmup(context.Background(), gen, 30_000); err != nil {
		t.Fatal(err)
	}
	st := warm.Run(gen, 30_000)

	if st.Instructions != 30_000 {
		t.Fatalf("measured %d instructions, want 30k", st.Instructions)
	}
	if st.IPC() <= cold.IPC() {
		t.Errorf("warmed IPC %.3f not above cold IPC %.3f", st.IPC(), cold.IPC())
	}
	if st.L1DMissRate >= cold.L1DMissRate {
		t.Errorf("warmed L1D miss rate %.3f not below cold %.3f", st.L1DMissRate, cold.L1DMissRate)
	}
}

// TestMispredictPenaltyFloor: a mispredicted branch must cost at least the
// Table 1 minimum of 12 cycles of fetch delay for the following
// instruction.
func TestMispredictPenaltyFloor(t *testing.T) {
	// Two streams, identical except that the branch outcome flips between
	// runs so the second run's branch trains then mispredicts.
	mk := func(taken bool) *trace.SliceStream {
		instrs := []trace.Instr{}
		// Warm the predictor towards not-taken.
		for i := 0; i < 6; i++ {
			instrs = append(instrs, trace.Instr{
				PC: 0x1000, Op: trace.Branch, Src1: trace.NoReg, Src2: trace.NoReg,
				Dest: trace.NoReg, Taken: false, Target: 0x2000,
			})
			instrs = append(instrs, trace.Instr{
				PC: 0x1004, Op: trace.IntALU, Src1: trace.NoReg, Src2: trace.NoReg, Dest: 1,
			})
		}
		// The probe branch.
		next := uint64(0x1004)
		if taken {
			next = 0x2000
		}
		instrs = append(instrs, trace.Instr{
			PC: 0x1000, Op: trace.Branch, Src1: trace.NoReg, Src2: trace.NoReg,
			Dest: trace.NoReg, Taken: taken, Target: 0x2000,
		})
		instrs = append(instrs, trace.Instr{
			PC: next, Op: trace.IntALU, Src1: trace.NoReg, Src2: trace.NoReg, Dest: 2,
		})
		return &trace.SliceStream{Instrs: instrs}
	}
	good := New(config.Default()).Run(mk(false), 100)
	bad := New(config.Default()).Run(mk(true), 100)
	if bad.Mispredicts == 0 {
		t.Fatal("probe branch was not mispredicted")
	}
	penalty := int64(bad.Cycles) - int64(good.Cycles)
	if penalty < 12 {
		t.Errorf("mispredict penalty = %d cycles, Table 1 requires >= 12", penalty)
	}
}

// TestFetchBlockLimit: at most two basic blocks are fetched per cycle, so a
// stream of single-instruction taken-branch blocks cannot exceed 2 IPC at
// the fetch stage.
func TestFetchBlockLimit(t *testing.T) {
	instrs := make([]trace.Instr, 0, 4096)
	// Alternate between two single-branch blocks that jump to each other:
	// every instruction starts a new basic block.
	for i := 0; i < 4096; i++ {
		pc, tgt := uint64(0x1000), uint64(0x2000)
		if i%2 == 1 {
			pc, tgt = 0x2000, 0x1000
		}
		instrs = append(instrs, trace.Instr{
			PC: pc, Op: trace.Branch, Src1: trace.NoReg, Src2: trace.NoReg,
			Dest: trace.NoReg, Taken: true, Target: tgt,
		})
	}
	st := New(config.Default()).Run(&trace.SliceStream{Instrs: instrs}, 4096)
	if ipc := st.IPC(); ipc > 2.05 {
		t.Errorf("IPC %.2f exceeds the 2-blocks-per-cycle fetch limit", ipc)
	}
}

// TestObserverTimelineInvariants: for every instruction the pipeline stages
// are causally ordered, commits are monotone, and every committed
// instruction is reported exactly once.
func TestObserverTimelineInvariants(t *testing.T) {
	p := New(config.Default())
	var lastCommit uint64
	var count uint64
	p.Observer = func(ti InstrTiming) {
		count++
		if !(ti.Fetch <= ti.Dispatch && ti.Dispatch < ti.Issue && ti.Issue <= ti.Complete && ti.Complete < ti.Commit) {
			t.Fatalf("stage ordering violated: %+v", ti)
		}
		if ti.Commit < lastCommit {
			t.Fatalf("commit went backwards: %d after %d (%+v)", ti.Commit, lastCommit, ti)
		}
		lastCommit = ti.Commit
		if ti.Cluster < 0 || ti.Cluster >= 4 {
			t.Fatalf("bad cluster %d", ti.Cluster)
		}
		if ti.Dispatch-ti.Fetch < frontDepth {
			t.Fatalf("front-end depth violated: %+v", ti)
		}
	}
	prof, _ := workload.ByName("gzip")
	st := p.Run(workload.NewGenerator(prof), 20_000)
	if count != st.Instructions {
		t.Fatalf("observer saw %d instructions, committed %d", count, st.Instructions)
	}
}

// TestMultiprogramFabricFloor: the shared fabric's calendars take the lowest
// fetch frontier among running threads as their floor, so bookings behind
// it die and the rings stay small over a run much longer than a ring's cap.
// With the floor left at zero every booking would stay live, and the run
// would fail with a CalendarError once two cycles MaxCells apart collided.
func TestMultiprogramFabricFloor(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	gcc, _ := workload.ByName("gcc")
	res, err := RunMultiprogramContext(context.Background(), config.Default(), []trace.Stream{
		workload.NewGenerator(mcf),
		workload.NewGenerator(gcc),
	}, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles := res[0].Stats.Cycles; cycles < 2*sched.MaxCells {
		t.Fatalf("the run spans %d cycles, too few to outgrow a ring with floor zero", cycles)
	}
}

// TestMultiprogramTwoThreads: two threads on the 16-cluster machine, each
// committing its full stream on disjoint cluster sets over a shared fabric.
func TestMultiprogramTwoThreads(t *testing.T) {
	cfg := config.Default()
	cfg.Topology = config.HierRing16
	p1, _ := workload.ByName("gzip")
	p2, _ := workload.ByName("swim")
	res := RunMultiprogram(cfg, []trace.Stream{
		workload.NewGenerator(p1),
		workload.NewGenerator(p2),
	}, 30_000)
	if len(res) != 2 {
		t.Fatalf("got %d thread results", len(res))
	}
	for i, r := range res {
		if r.Stats.Instructions != 30_000 {
			t.Errorf("thread %d committed %d instructions", i, r.Stats.Instructions)
		}
		if len(r.Clusters) != 8 {
			t.Errorf("thread %d owns %d clusters, want 8", i, len(r.Clusters))
		}
		if r.Stats.IPC() <= 0 {
			t.Errorf("thread %d has zero IPC", i)
		}
	}
	// Disjoint cluster sets.
	seen := map[int]bool{}
	for _, r := range res {
		for _, c := range r.Clusters {
			if seen[c] {
				t.Fatalf("cluster %d assigned to two threads", c)
			}
			seen[c] = true
		}
	}
}

// TestMultiprogramSharedCacheContention: two copies of a memory-heavy
// thread slow each other down relative to running alone on the same-sized
// partition (shared cache ports and wires are the paper's TLP pressure
// point).
func TestMultiprogramSharedCacheContention(t *testing.T) {
	cfg := config.Default()
	cfg.Topology = config.HierRing16
	prof, _ := workload.ByName("swim")
	profB := prof
	profB.Seed ^= 0xBEEF
	profB.AddrOffset = 1 << 32 // disjoint address space: no constructive sharing

	alone := RunMultiprogram(cfg, []trace.Stream{workload.NewGenerator(prof)}, 30_000)
	// A single thread gets all 16 clusters; to isolate sharing effects,
	// compare per-thread IPC of the duo against a solo run on 8 clusters.
	fab := NewSharedFabric(cfg)
	solo8 := NewOnFabric(cfg, fab, []int{0, 1, 2, 3, 4, 5, 6, 7})
	gen := workload.NewGenerator(prof)
	soloStats := solo8.Run(gen, 30_000)

	duo := RunMultiprogram(cfg, []trace.Stream{
		workload.NewGenerator(prof),
		workload.NewGenerator(profB),
	}, 30_000)

	if duo[0].Stats.IPC() > soloStats.IPC()*1.02 {
		t.Errorf("shared-fabric thread (%.3f) should not beat the solo 8-cluster run (%.3f)",
			duo[0].Stats.IPC(), soloStats.IPC())
	}
	if alone[0].Stats.IPC() <= 0 {
		t.Error("single-thread multiprogram run broken")
	}
	// Aggregate throughput of two threads must exceed one thread alone.
	if agg := duo[0].Stats.IPC() + duo[1].Stats.IPC(); agg <= alone[0].Stats.IPC() {
		t.Errorf("TLP throughput %.3f not above single-thread %.3f", agg, alone[0].Stats.IPC())
	}
}

// TestPlaneBeatsLinkHeterogeneity: the paper adopted plane heterogeneity
// (every link carries every class) over per-link class segregation because
// it "affords more flexibility"; at equal metal area the plane design
// should perform at least as well.
func TestPlaneBeatsLinkHeterogeneity(t *testing.T) {
	plane := config.Default().WithModel(config.ModelV)
	linkH := plane
	linkH.LinkHeterogeneous = true
	pr := runBench(t, plane, "gzip", testInstrs)
	lr := runBench(t, linkH, "gzip", testInstrs)
	if lr.IPC() > pr.IPC()*1.02 {
		t.Errorf("link heterogeneity (%.3f) should not beat plane heterogeneity (%.3f)",
			lr.IPC(), pr.IPC())
	}
}

// TestRandomConfigurationsHoldInvariants: property test — for arbitrary
// valid technique/model/topology combinations the machine commits every
// instruction, reports sane IPC, and never clamps a calendar.
func TestRandomConfigurationsHoldInvariants(t *testing.T) {
	models := config.Models()
	benches := workload.Names()
	for trial := 0; trial < 12; trial++ {
		cfg := config.Default().WithModel(models[trial%len(models)].ID)
		if trial%3 == 1 {
			cfg.Topology = config.HierRing16
		}
		if trial%4 == 2 {
			cfg.LatencyScale = 2
		}
		cfg.Steering = config.SteeringPolicy(trial % 3)
		if cfg.Model.Link.Has(wires.L) && trial%2 == 0 {
			cfg.Tech.FrequentValueEnc = true
			cfg.Tech.CriticalWordOnL = true
		}
		if cfg.Model.Link.Has(wires.B) && cfg.Model.Link.Has(wires.PW) && trial%5 == 0 {
			cfg.LinkHeterogeneous = true
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d produced invalid config: %v", trial, err)
		}
		st := runBench(t, cfg, benches[trial%len(benches)], 15_000)
		if st.Instructions != 15_000 {
			t.Fatalf("trial %d (%v): committed %d", trial, cfg.Model.ID, st.Instructions)
		}
		if ipc := st.IPC(); ipc <= 0.01 || ipc > 8 {
			t.Fatalf("trial %d (%v): IPC %.3f out of range", trial, cfg.Model.ID, ipc)
		}
	}
}

// TestBufferOccupancyIsModest: the paper cites Parcerisa et al. for
// unbounded network buffers needing only a modest number of entries in
// practice; the recorded worst-case buffered wait bounds the occupancy.
func TestBufferOccupancyIsModest(t *testing.T) {
	st := runBench(t, config.Default(), "gzip", testInstrs)
	for i, ns := range st.Net {
		if ns.Transfers == 0 {
			continue
		}
		if ns.MaxWait > 200 {
			t.Errorf("class %d worst buffered wait %d cycles; buffers are not modest", i, ns.MaxWait)
		}
	}
}

// TestObserverCrossChecksMixCounters: the op counts seen by the observer
// match the Stats counters exactly.
func TestObserverCrossChecksMixCounters(t *testing.T) {
	p := New(config.Default())
	var loads, stores, branches uint64
	p.Observer = func(ti InstrTiming) {
		switch ti.Op {
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		case trace.Branch:
			branches++
		}
	}
	prof, _ := workload.ByName("vortex")
	st := p.Run(workload.NewGenerator(prof), 20_000)
	if loads != st.Loads || stores != st.Stores || branches != st.Branches {
		t.Fatalf("observer saw %d/%d/%d, stats say %d/%d/%d",
			loads, stores, branches, st.Loads, st.Stores, st.Branches)
	}
}
