package hetwire

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=.). Each benchmark runs a reduced-scale but
// structurally complete version of the experiment and reports the headline
// quantity through b.ReportMetric, so `go test -bench=. -benchmem` produces
// the full paper-vs-measured comparison recorded in EXPERIMENTS.md.
//
//	BenchmarkTable2*   wire-class parameter derivation (paper Table 2)
//	BenchmarkFigure3   baseline vs +L-wires IPC (paper Figure 3)
//	BenchmarkTable3    model sweep on 4 clusters (paper Table 3)
//	BenchmarkTable4    model sweep on 16 clusters (paper Table 4)
//	BenchmarkLatency*  the Section 1 latency-doubling claim
//	BenchmarkScaling*  the Section 5.3 scaling claims
//	BenchmarkClaims    the Section 4 mechanism statistics
//	BenchmarkAblation* design-choice ablations called out in DESIGN.md
//	Benchmark<micro>   component micro-benchmarks

import (
	"testing"

	"hetwire/internal/bpred"
	"hetwire/internal/cache"
	"hetwire/internal/config"
	"hetwire/internal/core"
	"hetwire/internal/narrow"
	"hetwire/internal/noc"
	"hetwire/internal/trace"
	"hetwire/internal/wires"
	"hetwire/internal/workload"
)

// benchOpt sizes the experiment benchmarks: a representative benchmark
// subset keeps a full table sweep within a few seconds per iteration.
func benchOpt() Options {
	return Options{
		Instructions: 60_000,
		Benchmarks:   []string{"gzip", "mesa", "twolf", "swim", "mcf", "vortex", "galgel", "gcc"},
	}
}

// BenchmarkTable2Derivation regenerates the wire-class parameters from the
// physical models and reports the derived relative delay of L-wires
// (paper: 0.3).
func BenchmarkTable2Derivation(b *testing.B) {
	b.ReportAllocs()
	var last map[wires.Class]wires.Params
	for i := 0; i < b.N; i++ {
		last = wires.DeriveParams(wires.Tech45())
	}
	b.ReportMetric(last[wires.L].RelDelay, "L-relDelay")
	b.ReportMetric(last[wires.PW].RelDelay, "PW-relDelay")
	b.ReportMetric(last[wires.B].RelDelay, "B-relDelay")
}

// BenchmarkFigure3 reports the AM IPC speedup from adding an L-wire layer
// (paper: 4.2%).
func BenchmarkFigure3(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r Figure3Result
	for i := 0; i < b.N; i++ {
		r = Figure3(benchOpt())
	}
	b.ReportMetric(r.BaselineAM, "baseline-AM-IPC")
	b.ReportMetric(r.SpeedupPct, "speedup-%")
}

// BenchmarkTable3 reports the best heterogeneous ED^2 at both interconnect
// shares (paper: 92.0 @10%, 92.1 @20%; homogeneous baselines ~100).
func BenchmarkTable3(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r TableResult
	for i := 0; i < b.N; i++ {
		r = Table3(benchOpt())
	}
	b.ReportMetric(r.BestED2(10).RelED2At10, "best-ED2@10%")
	b.ReportMetric(r.BestED2(20).RelED2At20, "best-ED2@20%")
	b.ReportMetric(r.Rows[1].RelICDyn, "ModelII-IC-dyn")
}

// BenchmarkTable4 reports the 16-cluster results (paper: best ED^2 88.7
// @20%).
func BenchmarkTable4(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r TableResult
	for i := 0; i < b.N; i++ {
		r = Table4(benchOpt())
	}
	b.ReportMetric(r.BestED2(20).RelED2At20, "best-ED2@20%")
	b.ReportMetric(r.Rows[0].IPC, "ModelI-IPC")
}

// BenchmarkLatencyDoubling reports the Section 1 slowdown (paper: ~12%).
func BenchmarkLatencyDoubling(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r LatencySensitivityResult
	for i := 0; i < b.N; i++ {
		r = LatencySensitivity(benchOpt())
	}
	b.ReportMetric(r.SlowdownPct, "slowdown-%")
}

// BenchmarkScalingStudies reports the Section 5.3 claims (paper: +17%
// 4->16 clusters, +7.1% wire-constrained L-wires, +7.4% 16-cluster
// L-wires).
func BenchmarkScalingStudies(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r ScalingResult
	for i := 0; i < b.N; i++ {
		r = ScalingStudies(benchOpt())
	}
	b.ReportMetric(r.ClusterGainPct, "4to16-gain-%")
	b.ReportMetric(r.WireConstrainedGainPct, "wire-constrained-L-gain-%")
	b.ReportMetric(r.SixteenClusterLWireGainPct, "16cluster-L-gain-%")
}

// BenchmarkClaims reports the Section 4 mechanism statistics (paper: <9%
// false deps, 95% coverage, 2% false narrow, 14% narrow traffic, 36% PW
// traffic, 14% contention drop).
func BenchmarkClaims(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r ClaimsResult
	for i := 0; i < b.N; i++ {
		r = Claims(benchOpt())
	}
	b.ReportMetric(r.FalseDepPct, "false-dep-%")
	b.ReportMetric(r.NarrowCoveragePct, "narrow-coverage-%")
	b.ReportMetric(r.NarrowFalsePct, "narrow-false-%")
	b.ReportMetric(r.NarrowTrafficPct, "narrow-traffic-%")
	b.ReportMetric(r.PWTrafficPct, "PW-traffic-%")
	b.ReportMetric(r.ContentionReductionPct, "contention-drop-%")
}

// --- Ablations -----------------------------------------------------------

func runAblation(b *testing.B, cfg config.Config, bench string) core.Stats {
	b.Helper()
	b.ReportAllocs()
	prof, _ := workload.ByName(bench)
	var st core.Stats
	for i := 0; i < b.N; i++ {
		st = core.New(cfg).Run(workload.NewGenerator(prof), 60_000)
	}
	return st
}

// BenchmarkAblationLSBits sweeps the partial-address width (the paper
// chose 8 bits for <9% false dependences).
func BenchmarkAblationLSBits(b *testing.B) {
	for _, bits := range []int{4, 8, 12} {
		b.Run(map[int]string{4: "4bits", 8: "8bits", 12: "12bits"}[bits], func(b *testing.B) {
			cfg := config.Default().WithModel(config.ModelVII)
			cfg.Tech.LSBits = bits
			st := runAblation(b, cfg, "vortex")
			b.ReportMetric(100*float64(st.PartialFalseDeps)/float64(st.PartialChecks), "false-dep-%")
			b.ReportMetric(st.IPC(), "IPC")
		})
	}
}

// BenchmarkAblationNarrowPredictor compares no narrow transfers, the 8K
// 2-bit predictor, and oracle width knowledge (the paper's optimistic
// assumption).
func BenchmarkAblationNarrowPredictor(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*config.Config)
	}{
		{"off", func(c *config.Config) { c.Tech.NarrowOperands = false }},
		{"predictor", func(c *config.Config) {}},
		{"oracle", func(c *config.Config) { c.Tech.NarrowOracle = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := config.Default().WithModel(config.ModelVII)
			v.mut(&cfg)
			st := runAblation(b, cfg, "gzip")
			b.ReportMetric(st.IPC(), "IPC")
			b.ReportMetric(float64(st.NarrowTransfers), "narrow-transfers")
		})
	}
}

// BenchmarkAblationPWCriteria disables each of the three Section 4 PW
// steering rules in turn on Model V.
func BenchmarkAblationPWCriteria(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*config.Config)
	}{
		{"all", func(c *config.Config) {}},
		{"no-ready-operands", func(c *config.Config) { c.Tech.PWReadyOperands = false }},
		{"no-store-data", func(c *config.Config) { c.Tech.PWStoreData = false }},
		{"no-load-balance", func(c *config.Config) { c.Tech.PWLoadBalance = false }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := config.Default().WithModel(config.ModelV)
			v.mut(&cfg)
			st := runAblation(b, cfg, "vortex")
			b.ReportMetric(st.IPC(), "IPC")
			b.ReportMetric(float64(st.Net[1].Transfers), "PW-transfers")
		})
	}
}

// BenchmarkAblationImbalanceThreshold sweeps the load-balance trigger
// (paper: threshold 10 over a 5-cycle window).
func BenchmarkAblationImbalanceThreshold(b *testing.B) {
	for _, th := range []int{2, 10, 40} {
		b.Run(map[int]string{2: "thresh2", 10: "thresh10", 40: "thresh40"}[th], func(b *testing.B) {
			cfg := config.Default().WithModel(config.ModelV)
			cfg.Tech.BalanceThreshold = th
			st := runAblation(b, cfg, "gzip")
			b.ReportMetric(st.IPC(), "IPC")
			b.ReportMetric(float64(st.BalancePW), "diversions")
		})
	}
}

// BenchmarkAblationLWireCount compares 18 versus 36 L-wires per link
// (trading more metal area for two L transfers per cycle).
func BenchmarkAblationLWireCount(b *testing.B) {
	for _, n := range []int{18, 36} {
		b.Run(map[int]string{18: "18wires", 36: "36wires"}[n], func(b *testing.B) {
			cfg := config.Default().WithModel(config.ModelVII)
			cfg.Model.Link.LWires = n
			st := runAblation(b, cfg, "gzip")
			b.ReportMetric(st.IPC(), "IPC")
		})
	}
}

// --- Component micro-benchmarks ------------------------------------------

// BenchmarkSimulatorThroughput measures raw simulation speed in simulated
// instructions per wall-clock second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	prof, _ := workload.ByName("gzip")
	const n = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.New(config.Default()).Run(workload.NewGenerator(prof), n)
	}
	b.ReportMetric(float64(n*uint64(b.N))/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkWorkloadGenerator measures trace generation alone.
func BenchmarkWorkloadGenerator(b *testing.B) {
	b.ReportAllocs()
	prof, _ := workload.ByName("gcc")
	g := workload.NewGenerator(prof)
	var ins trace.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&ins)
	}
}

// BenchmarkBranchPredictor measures the combining predictor's update path.
func BenchmarkBranchPredictor(b *testing.B) {
	b.ReportAllocs()
	p := bpred.New(bpred.Config{
		BimodalSize: 16384, L1Size: 16384, HistoryBits: 12,
		L2Size: 16384, ChooserSize: 16384, BTBSets: 16384, BTBAssoc: 2, RASEntries: 32,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.UpdateDirection(uint64(i%4096)*4, i%3 != 0)
	}
}

// BenchmarkCacheLookup measures the L1D array model.
func BenchmarkCacheLookup(b *testing.B) {
	b.ReportAllocs()
	c := cache.New(cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Assoc: 4, Latency: 6, Banks: 4, Ports: 1}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i*64) % (256 * 1024))
	}
}

// BenchmarkNoCTransfer measures one heterogeneous-link reservation.
func BenchmarkNoCTransfer(b *testing.B) {
	b.ReportAllocs()
	n := noc.New(config.Default().WithModel(config.ModelX), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Transfer(noc.Cluster(i%4), noc.Cache, wires.B, 72, uint64(i/2))
	}
}

// BenchmarkNarrowPredictor measures the 8K-entry narrow-width predictor.
func BenchmarkNarrowPredictor(b *testing.B) {
	b.ReportAllocs()
	p := narrow.NewPredictor(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Record(uint64(i%2048)*4, i%4 != 0)
	}
}

// BenchmarkExtensions reports the future-work techniques (paper Sections
// 5.3/7): frequent-value compaction, critical-word L2 returns, and the
// transmission-line L plane's ED^2.
func BenchmarkExtensions(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r ExtensionsResult
	for i := 0; i < b.N; i++ {
		r = Extensions(benchOpt())
	}
	b.ReportMetric(100*(r.FrequentValueIPC/r.BaseIPC-1), "FV-gain-%")
	b.ReportMetric(100*(r.CriticalWordIPC/r.BaseIPC-1), "critword-gain-%")
	b.ReportMetric(r.TransmissionLineED2, "TL-relED2")
	b.ReportMetric(r.FVTrafficPct, "FV-traffic-%")
}

// BenchmarkAblationSteering compares the paper's dynamic steering heuristic
// against static (compile-time-style) hashing and blind round-robin.
func BenchmarkAblationSteering(b *testing.B) {
	for _, pol := range []config.SteeringPolicy{config.SteerDynamic, config.SteerStatic, config.SteerRoundRobin} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := config.Default()
			cfg.Steering = pol
			st := runAblation(b, cfg, "gzip")
			b.ReportMetric(st.IPC(), "IPC")
			b.ReportMetric(float64(st.OperandTransfers), "transfers")
		})
	}
}

// BenchmarkTLPThroughput runs four threads on the 16-cluster machine and
// reports aggregate throughput for homogeneous versus heterogeneous wires —
// the thread-level-parallelism case the paper motivates.
func BenchmarkTLPThroughput(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	benches := []string{"gzip", "swim", "twolf", "mesa"}
	run := func(cfg Config) float64 {
		res, err := RunMultiprogrammed(cfg, benches, 40_000)
		if err != nil {
			b.Fatal(err)
		}
		var agg float64
		for _, r := range res {
			agg += r.Stats.IPC()
		}
		return agg
	}
	var homog, het float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Topology = HierRing16
		homog = run(cfg)
		h := DefaultConfig().WithModel(ModelVI)
		h.Topology = HierRing16
		het = run(h)
	}
	b.ReportMetric(homog, "ModelI-throughput")
	b.ReportMetric(het, "ModelVI-throughput")
	b.ReportMetric(100*(het/homog-1), "het-gain-%")
}

// BenchmarkAblationPlaneVsLinkHeterogeneity compares the paper's chosen
// plane-heterogeneous links (every link carries every class) against the
// Section 3 low-complexity alternative (whole links dedicated to one
// class) at equal metal area.
func BenchmarkAblationPlaneVsLinkHeterogeneity(b *testing.B) {
	for _, mode := range []string{"plane", "per-link"} {
		b.Run(mode, func(b *testing.B) {
			cfg := config.Default().WithModel(config.ModelV)
			cfg.LinkHeterogeneous = mode == "per-link"
			st := runAblation(b, cfg, "gzip")
			b.ReportMetric(st.IPC(), "IPC")
		})
	}
}

// BenchmarkExploreDesignSpace sweeps all link compositions within 2.0
// Model-I area units and reports the ED^2-optimal design (the paper's
// Section 3 design-space question made executable).
func BenchmarkExploreDesignSpace(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var r ExploreResult
	for i := 0; i < b.N; i++ {
		r = ExploreArea(2.0, 0.10, benchOpt())
	}
	best := r.Best()
	b.ReportMetric(best.RelED2, "best-ED2")
	b.ReportMetric(float64(len(r.Points)), "designs")
	b.ReportMetric(best.IPC, "best-IPC")
}

// BenchmarkLatencySweep extends the Section 1 experiment to a curve: the
// L-wire layer's value must grow monotonically with wire latency.
func BenchmarkLatencySweep(b *testing.B) {
	if testing.Short() {
		b.Skip("heavyweight experiment sweep")
	}
	b.ReportAllocs()
	var c LatencyCurve
	for i := 0; i < b.N; i++ {
		c = SweepLatencyScale([]int{1, 2, 4}, benchOpt())
	}
	b.ReportMetric(c.LWireGainPct[0], "L-gain@1x-%")
	b.ReportMetric(c.LWireGainPct[1], "L-gain@2x-%")
	b.ReportMetric(c.LWireGainPct[2], "L-gain@4x-%")
}
