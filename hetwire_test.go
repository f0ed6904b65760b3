package hetwire

import (
	"os"
	"strings"
	"testing"

	"hetwire/internal/trace"
	"hetwire/internal/workload"
)

func smallOpt() Options {
	return Options{
		Instructions: 30_000,
		Benchmarks:   []string{"gzip", "mesa", "twolf"},
	}
}

func TestRunBenchmark(t *testing.T) {
	res, err := RunBenchmark(DefaultConfig(), "gcc", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "gcc" || res.Instructions != 20_000 || res.IPC() <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	_, err := RunBenchmark(DefaultConfig(), "doom3", 1000)
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("expected unknown-benchmark error, got %v", err)
	}
}

func TestNewSimulatorRejectsInvalidConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.Core.ROBSize = -1
	if _, err := NewSimulator(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 23 {
		t.Fatalf("have %d benchmarks, want 23", len(b))
	}
	s := SortedBenchmarks()
	if len(s) != 23 || s[0] != "ammp" || s[22] != "wupwise" {
		t.Fatalf("sorted list wrong: %v", s)
	}
}

func TestWithModelRoundTrip(t *testing.T) {
	cfg := DefaultConfig().WithModel(ModelVII)
	if !cfg.Tech.LWireCachePipeline || !cfg.Tech.NarrowOperands {
		t.Fatal("Model VII should enable the L-wire techniques")
	}
	res, err := RunBenchmark(cfg, "gzip", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net[2].Transfers == 0 {
		t.Fatal("no L-wire traffic under Model VII")
	}
}

func TestFigure3Small(t *testing.T) {
	r := Figure3(smallOpt())
	if len(r.BaselineIPC) != 3 || len(r.LWireIPC) != 3 {
		t.Fatalf("wrong row count: %+v", r)
	}
	if r.SpeedupPct <= 0 {
		t.Errorf("L-wire layer speedup %.2f%%, expected positive (paper: 4.2%%)", r.SpeedupPct)
	}
	if !strings.Contains(r.String(), "AM") {
		t.Error("rendered figure missing the AM row")
	}
}

func TestTable3Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep")
	}
	r := Table3(smallOpt())
	if len(r.Rows) != 10 {
		t.Fatalf("want 10 model rows, got %d", len(r.Rows))
	}
	if r.Rows[0].Model != ModelI || r.Rows[0].RelED2At10 != 100 {
		t.Fatalf("Model I row not normalised: %+v", r.Rows[0])
	}
	// Paper headline: some heterogeneous interconnect beats every
	// homogeneous one on ED^2.
	best := r.BestED2(10)
	if best.Model == ModelI || best.Model == ModelIV || best.Model == ModelVIII {
		t.Errorf("best ED2 model is homogeneous (%v); heterogeneity should win", best.Model)
	}
	if best.RelED2At10 >= 100 {
		t.Errorf("best ED2 %.1f should improve on the baseline", best.RelED2At10)
	}
	// Model II burns much less interconnect dynamic energy (paper: 52).
	if r.Rows[1].RelICDyn > 70 {
		t.Errorf("Model II relative IC dynamic energy %.1f, want ~52", r.Rows[1].RelICDyn)
	}
	if !strings.Contains(r.String(), "Model-X") {
		t.Error("rendered table missing rows")
	}
}

func TestLatencySensitivitySmall(t *testing.T) {
	r := LatencySensitivity(smallOpt())
	if r.SlowdownPct <= 0 {
		t.Errorf("doubling latency should slow the machine, got %+.2f%%", r.SlowdownPct)
	}
	if len(r.PerBenchmark) != 3 {
		t.Errorf("per-benchmark map has %d entries", len(r.PerBenchmark))
	}
}

func TestClaimsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-model sweep")
	}
	r := Claims(smallOpt())
	if r.FalseDepPct <= 0 || r.FalseDepPct > 9 {
		t.Errorf("false-dependence rate %.2f%%, paper bound is <9%%", r.FalseDepPct)
	}
	if r.NarrowCoveragePct < 80 {
		t.Errorf("narrow coverage %.1f%%, want >= 80 (paper: 95)", r.NarrowCoveragePct)
	}
	if r.NarrowFalsePct > 6 {
		t.Errorf("false-narrow %.1f%%, want <= 6 (paper: 2)", r.NarrowFalsePct)
	}
	if r.PWTrafficPct <= 5 {
		t.Errorf("PW diversion %.1f%%, expected substantial (paper: 36)", r.PWTrafficPct)
	}
	if r.ContentionReductionPct <= 0 {
		t.Errorf("PW criteria should cut contention, got %.1f%%", r.ContentionReductionPct)
	}
	if r.PWSteeringIPCCostPct > 5 {
		t.Errorf("PW steering IPC cost %.1f%%, want small (paper: ~1%%)", r.PWSteeringIPCCostPct)
	}
}

func TestSuiteRunParallelismMatchesSerial(t *testing.T) {
	optSerial := smallOpt()
	optSerial.Parallelism = 1
	optPar := smallOpt()
	optPar.Parallelism = 8

	a := runSuite(DefaultConfig(), optSerial.withDefaults())
	b := runSuite(DefaultConfig(), optPar.withDefaults())
	for _, bench := range optSerial.Benchmarks {
		if a.perBench[bench].Cycles != b.perBench[bench].Cycles {
			t.Fatalf("%s: parallel run diverged from serial", bench)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Instructions == 0 || len(o.Benchmarks) != 23 || o.Parallelism <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestProfilesRoundTripThroughPublicAPI(t *testing.T) {
	for _, name := range workload.Names() {
		if _, ok := workload.ByName(name); !ok {
			t.Fatalf("profile %s not resolvable", name)
		}
	}
}

func TestRunMultiprogrammedAPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = HierRing16
	res, err := RunMultiprogrammed(cfg, []string{"gzip", "mesa"}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Benchmark != "gzip" || res[1].Benchmark != "mesa" {
		t.Fatalf("bad results: %+v", res)
	}
	for _, r := range res {
		if r.Stats.Instructions != 20_000 || len(r.Clusters) != 8 {
			t.Fatalf("thread malformed: %+v", r)
		}
	}
	if _, err := RunMultiprogrammed(cfg, nil, 100); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := RunMultiprogrammed(cfg, []string{"quake4"}, 100); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunKernelAPI(t *testing.T) {
	if len(Kernels()) < 5 {
		t.Fatal("kernel list shrank")
	}
	res, err := RunKernel(DefaultConfig(), "pchase", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunKernel(DefaultConfig(), "alu", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() >= fast.IPC() {
		t.Errorf("pointer chase (%.3f) should be far slower than the ALU kernel (%.3f)",
			res.IPC(), fast.IPC())
	}
	if _, err := RunKernel(DefaultConfig(), "nope", 100); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestVerifyReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification sweep")
	}
	findings := VerifyReproduction(Options{
		Instructions: 60_000,
		Benchmarks:   []string{"gzip", "mesa", "twolf", "swim", "mcf", "vortex", "galgel", "gcc"},
	})
	if len(findings) < 20 {
		t.Fatalf("only %d checks ran", len(findings))
	}
	for _, f := range findings {
		if !f.OK {
			t.Errorf("reproduction check failed: %s", f)
		}
	}
	if !AllOK(findings) {
		t.Error("AllOK disagrees with individual findings")
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/machine.json"
	orig := DefaultConfig().WithModel(ModelX)
	orig.Topology = HierRing16
	orig.LatencyScale = 2
	orig.Tech.FrequentValueEnc = true
	if err := SaveConfigFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.ID != ModelX || got.Topology != HierRing16 || got.LatencyScale != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if !got.Tech.FrequentValueEnc || !got.Tech.LWireCachePipeline || !got.Tech.PWStoreData {
		t.Fatalf("techniques lost: %+v", got.Tech)
	}
}

func TestLoadConfigFileRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"badmodel.json":    `{"model":"XXL"}`,
		"badjson.json":     `{nope`,
		"badsteer.json":    `{"model":"I","steering":"chaotic"}`,
		"badtech.json":     `{"model":"VII","techniques":{"warp_drive":true}}`,
		"badclust.json":    `{"model":"I","clusters":7}`,
		"invalid.json":     `{"model":"I","techniques":{"cache_pipeline":true}}`,
		"badoverride.json": `{"model":"I","core_overrides":{"flux":3}}`,
	}
	for name, body := range cases {
		if _, err := LoadConfigFile(write(name, body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := LoadConfigFile(dir + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadConfigFileOverrides(t *testing.T) {
	path := t.TempDir() + "/o.json"
	body := `{"model":"I","core_overrides":{"rob":256,"l1d_latency":4},"ls_bits":10}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Core.ROBSize != 256 || cfg.Core.L1DLatency != 4 || cfg.Tech.LSBits != 10 {
		t.Fatalf("overrides not applied: %+v", cfg.Core)
	}
}

func TestTable4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-cluster model sweep")
	}
	r := Table4(smallOpt())
	if len(r.Rows) != 10 || r.Topology.Clusters() != 16 {
		t.Fatalf("bad table: %+v", r.Topology)
	}
	best := r.BestED2(20)
	if best.Model == ModelI || best.Model == ModelIV || best.Model == ModelVIII {
		t.Errorf("16-cluster best ED2 model is homogeneous (%v)", best.Model)
	}
	// The 16-cluster machine must show a larger L-wire IPC spread than the
	// baseline: Model IX (most L+B bandwidth) above Model II (PW only).
	var ipcII, ipcIX float64
	for _, row := range r.Rows {
		switch row.Model {
		case ModelII:
			ipcII = row.IPC
		case ModelIX:
			ipcIX = row.IPC
		}
	}
	if ipcIX <= ipcII {
		t.Errorf("Model IX (%.3f) should beat Model II (%.3f) at 16 clusters", ipcIX, ipcII)
	}
}

func TestExtensionsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	r := Extensions(smallOpt())
	if r.BaseIPC <= 0 || r.FrequentValueIPC <= 0 || r.CriticalWordIPC <= 0 {
		t.Fatalf("missing results: %+v", r)
	}
	if r.FVTrafficPct <= 0 {
		t.Error("frequent-value compaction never fired")
	}
	if r.TransmissionLineED2 >= 100 {
		t.Errorf("TL plane should reduce ED2, got %.1f", r.TransmissionLineED2)
	}
	if r.FrequentValueIPC < r.BaseIPC*0.97 {
		t.Errorf("FV compaction cost too much: %.3f vs %.3f", r.FrequentValueIPC, r.BaseIPC)
	}
}

func TestExploreArea(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweep")
	}
	r := ExploreArea(1.5, 0.10, Options{Instructions: 25_000, Benchmarks: []string{"gzip", "mesa", "twolf"}})
	if len(r.Points) < 4 {
		t.Fatalf("only %d designs enumerated", len(r.Points))
	}
	for _, p := range r.Points {
		if p.MetalArea > 1.5+1e-9 {
			t.Errorf("design %s exceeds the area budget (%.2f)", p.Link, p.MetalArea)
		}
		if p.Link.BWires == 0 && p.Link.PWWires == 0 {
			t.Errorf("design %s has no wide plane", p.Link)
		}
	}
	// The paper's named models inside the budget must appear.
	seen := map[ModelID]bool{}
	for _, p := range r.Points {
		if p.PaperModel != 0 {
			seen[p.PaperModel] = true
		}
	}
	for _, want := range []ModelID{ModelI, ModelII, ModelIII} {
		if !seen[want] {
			t.Errorf("named %v missing from the sweep", want)
		}
	}
	// The winner mixes classes (the paper's conclusion).
	best := r.Best()
	classes := 0
	if best.Link.BWires > 0 {
		classes++
	}
	if best.Link.PWWires > 0 {
		classes++
	}
	if best.Link.LWires > 0 {
		classes++
	}
	if classes < 2 {
		t.Errorf("ED2-optimal design %s is homogeneous", best.Link)
	}
	if r.Points[0].RelED2 > r.Points[len(r.Points)-1].RelED2 {
		t.Error("points not sorted by ED2")
	}
}

func TestCSVRendering(t *testing.T) {
	r := Figure3(smallOpt())
	csv := r.CSV()
	if !strings.HasPrefix(csv, "benchmark,baseline_ipc,lwire_ipc\n") {
		t.Errorf("fig3 CSV header wrong: %q", csv[:40])
	}
	if strings.Count(csv, "\n") != len(r.Benchmarks)+2 { // header + rows + AM
		t.Errorf("fig3 CSV row count wrong:\n%s", csv)
	}
}

func TestSweepLatencyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale sweep")
	}
	c := SweepLatencyScale([]int{1, 3}, smallOpt())
	if len(c.Scales) != 2 || len(c.AMIPC) != 2 || len(c.LWireGainPct) != 2 {
		t.Fatalf("malformed curve: %+v", c)
	}
	if c.AMIPC[1] >= c.AMIPC[0] {
		t.Errorf("IPC should fall as latency grows: %.3f -> %.3f", c.AMIPC[0], c.AMIPC[1])
	}
	if c.LWireGainPct[1] <= c.LWireGainPct[0] {
		t.Errorf("L-wire gain should grow with latency (paper Section 5.3): %.1f%% -> %.1f%%",
			c.LWireGainPct[0], c.LWireGainPct[1])
	}
}

func TestFigure3Bars(t *testing.T) {
	r := Figure3(smallOpt())
	bars := r.Bars(40)
	if !strings.Contains(bars, "gzip") || !strings.Contains(bars, "AM") {
		t.Errorf("bar chart missing rows:\n%s", bars)
	}
	if !strings.Contains(bars, "#") || !strings.Contains(bars, "=") {
		t.Error("bar chart missing bars")
	}
}

// TestMultiprogSeedsDistinct: RunMultiprogrammed must give every thread a
// distinct workload stream. The old `seed ^= i * 0x9E37` mixing left thread
// 0 with the base seed, so its stream collided with a single-program run of
// the same benchmark (and would alias in any result cache keyed on workload
// identity).
func TestMultiprogSeedsDistinct(t *testing.T) {
	profs, err := multiprogProfiles([]string{"gzip", "gzip", "gzip", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := workload.ByName("gzip")
	seen := map[uint64]int{}
	for i, p := range profs {
		if p.Seed == base.Seed {
			t.Errorf("thread %d kept the base seed %#x", i, base.Seed)
		}
		if j, dup := seen[p.Seed]; dup {
			t.Errorf("threads %d and %d share seed %#x", j, i, p.Seed)
		}
		seen[p.Seed] = i
		if want := uint64(i) << 33; p.AddrOffset != want {
			t.Errorf("thread %d AddrOffset = %#x, want %#x", i, p.AddrOffset, want)
		}
	}
	// The divergence must reach the instruction streams themselves: the
	// first blocks of each thread's generated program must differ.
	if len(profs) >= 2 {
		a, b := workload.NewGenerator(profs[0]), workload.NewGenerator(profs[1])
		var ia, ib trace.Instr
		// Strip the per-thread address-space offset from every
		// address-bearing field, so only genuine stream divergence counts.
		strip := func(ins *trace.Instr) {
			ins.PC &^= uint64(3) << 33
			ins.Addr &^= uint64(3) << 33
			ins.Target &^= uint64(3) << 33
		}
		same := true
		for k := 0; k < 256; k++ {
			a.Next(&ia)
			b.Next(&ib)
			strip(&ia)
			strip(&ib)
			if ia != ib {
				same = false
				break
			}
		}
		if same {
			t.Error("threads 0 and 1 generate identical instruction streams")
		}
	}
}

// TestSimulatorRunLabelsBenchmark: results produced through the raw
// Simulator path carry the workload's name when the stream knows it.
func TestSimulatorRunLabelsBenchmark(t *testing.T) {
	prof, ok := workload.ByName("mesa")
	if !ok {
		t.Fatal("mesa profile missing")
	}
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(workload.NewGenerator(prof), 5_000)
	if res.Benchmark != "mesa" {
		t.Errorf("Result.Benchmark = %q, want %q", res.Benchmark, "mesa")
	}
	// Anonymous streams stay unlabeled.
	sim2, _ := NewSimulator(DefaultConfig())
	res2 := sim2.Run(&trace.SliceStream{}, 0)
	if res2.Benchmark != "" {
		t.Errorf("anonymous stream labeled %q", res2.Benchmark)
	}
}
