package hetwire

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"hetwire/internal/batch"
	"hetwire/internal/config"
	"hetwire/internal/core"
	"hetwire/internal/energy"
	"hetwire/internal/stats"
	"hetwire/internal/workload"
)

// Options controls an experiment driver run.
type Options struct {
	// Instructions per benchmark (the paper simulates 100M; the default of
	// 300k reproduces the relative behaviour in seconds).
	Instructions uint64
	// Warmup instructions simulated before statistics are measured (the
	// paper warms structures for 1M instructions). Default: a tenth of
	// Instructions.
	Warmup uint64
	// Benchmarks restricts the suite (default: all 23).
	Benchmarks []string
	// Parallelism bounds how many of the driver's scenarios run at once
	// (default: GOMAXPROCS). Each driver runs every configuration ×
	// benchmark scenario it needs in one batch.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Instructions == 0 {
		o.Instructions = 300_000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Warmup == 0 {
		o.Warmup = o.Instructions / 10
	}
	return o
}

// suiteRun is one configuration's statistics over the benchmark suite, in
// Options.Benchmarks order.
type suiteRun []core.Stats

// ipcs returns each benchmark's IPC.
func (s suiteRun) ipcs() []float64 {
	out := make([]float64, len(s))
	for i, st := range s {
		out[i] = st.IPC()
	}
	return out
}

// AMIPC returns the arithmetic-mean IPC over the suite (the paper's metric).
func (s suiteRun) AMIPC() float64 { return stats.ArithmeticMean(s.ipcs()) }

// measurement converts the aggregate run into the energy model's input:
// cycles and traffic summed over the suite, and the configuration's wire
// inventory, which every run's statistics carry.
func (s suiteRun) measurement() energy.RunMeasurement {
	var m energy.RunMeasurement
	m.Inventory = s[0].LinkInventory
	for _, st := range s {
		m.Cycles += st.Cycles
		for i := range m.Net {
			m.Net[i].Transfers += st.Net[i].Transfers
			m.Net[i].Bits += st.Net[i].Bits
			m.Net[i].BitHops += st.Net[i].BitHops
			m.Net[i].WaitCycles += st.Net[i].WaitCycles
		}
	}
	return m
}

// runSuites simulates every benchmark on every configuration as one flat
// batch: item i runs configuration i/nb on benchmark i%nb, so scenario
// parallelism spans the whole driver rather than one suite at a time. Each
// item warms and runs a pooled machine (runPooled), and writes only its own
// index, so the result does not depend on completion order. CPU tokens are
// shared with every other parallel surface in the process (a driver running
// inside a hetwired worker composes with the daemon's pool instead of
// oversubscribing it).
func runSuites(cfgs []config.Config, opt Options) []suiteRun {
	nb := len(opt.Benchmarks)
	profs := make([]workload.Profile, nb)
	for i, name := range opt.Benchmarks {
		prof, ok := workload.ByName(name)
		if !ok {
			panic(fmt.Sprintf("hetwire: unknown benchmark %q", name))
		}
		profs[i] = prof
	}
	sts := make([]core.Stats, len(cfgs)*nb)
	errs := batch.Run(context.Background(), len(sts), opt.Parallelism, func(ctx context.Context, i int) error {
		res, err := runPooled(ctx, cfgs[i/nb], profs[i%nb].Name, profs[i%nb], opt.Warmup, opt.Instructions, nil)
		sts[i] = res.Stats
		return err
	})
	for i, err := range errs {
		if err != nil {
			// A driver's configurations are valid and its runs are never
			// cancelled; an error is a simulator bug (a contained panic or an
			// engine fault) the drivers must not paper over.
			panic(fmt.Sprintf("hetwire: suite scenario %s on configuration %d: %v", profs[i%nb].Name, i/nb, err))
		}
	}
	runs := make([]suiteRun, len(cfgs))
	for c := range runs {
		runs[c] = sts[c*nb : (c+1)*nb]
	}
	return runs
}

// withoutPWCriteria turns off the Section 4 PW steering criteria, so
// everything steerable stays on the B plane.
func withoutPWCriteria(c config.Config) config.Config {
	c.Tech.PWReadyOperands = false
	c.Tech.PWStoreData = false
	c.Tech.PWLoadBalance = false
	return c
}

// withLWireLayer adds one L-wire layer (18 wires per link direction) and
// the Section 4 low-latency optimisations that use it: Figure 3's
// "+L-wires" machine.
func withLWireLayer(c config.Config) config.Config {
	c.Model.Link.LWires = 18
	c.Tech = config.AllTechniques()
	return withoutPWCriteria(c)
}

// Figure3Result holds the per-benchmark IPC comparison of paper Figure 3:
// the baseline 4-cluster machine (144 B-wires per link) versus the same
// machine with an added L-wire layer driving the Section 4 low-latency
// optimisations.
type Figure3Result struct {
	Benchmarks  []string
	BaselineIPC []float64
	LWireIPC    []float64
	BaselineAM  float64
	LWireAM     float64
	SpeedupPct  float64 // paper: 4.2%
}

// Figure3 regenerates paper Figure 3.
func Figure3(opt Options) Figure3Result {
	opt = opt.withDefaults()
	runs := runSuites([]config.Config{config.Default(), withLWireLayer(config.Default())}, opt)
	base, lw := runs[0], runs[1]
	r := Figure3Result{
		Benchmarks:  opt.Benchmarks,
		BaselineIPC: base.ipcs(),
		LWireIPC:    lw.ipcs(),
		BaselineAM:  base.AMIPC(),
		LWireAM:     lw.AMIPC(),
	}
	r.SpeedupPct = 100 * (r.LWireAM/r.BaselineAM - 1)
	return r
}

// String renders the figure as a text table.
func (r Figure3Result) String() string {
	t := stats.NewTable("benchmark", "baseline IPC", "+L-wires IPC", "speedup %")
	for i, b := range r.Benchmarks {
		t.AddRow(b, r.BaselineIPC[i], r.LWireIPC[i], 100*(r.LWireIPC[i]/r.BaselineIPC[i]-1))
	}
	t.AddRow("AM", r.BaselineAM, r.LWireAM, r.SpeedupPct)
	return t.String()
}

// TableRow is one interconnect model's results in the Table 3/4 format.
type TableRow struct {
	Model       ModelID
	Description string
	MetalArea   float64
	IPC         float64 // arithmetic mean over the suite
	RelICDyn    float64 // relative interconnect dynamic energy (Model I = 100)
	RelICLkg    float64
	RelEnergy10 float64 // relative processor energy at 10% IC share
	RelEnergy20 float64
	RelED2At10  float64
	RelED2At20  float64
}

// TableResult holds the full Table 3 or Table 4 reproduction.
type TableResult struct {
	Topology config.Topology
	Rows     []TableRow
}

// modelTable runs all ten models on the topology and fills every energy
// column, normalised against Model I exactly as the paper does.
func modelTable(topology config.Topology, opt Options) TableResult {
	opt = opt.withDefaults()
	specs := config.Models()
	cfgs := make([]config.Config, len(specs))
	for i, spec := range specs {
		cfgs[i] = config.Default().WithModel(spec.ID)
		cfgs[i].Topology = topology
	}
	runs := runSuites(cfgs, opt)

	em10 := energy.Model{Baseline: runs[0].measurement(), ICFraction: 0.10}
	em20 := energy.Model{Baseline: em10.Baseline, ICFraction: 0.20}

	out := TableResult{Topology: topology}
	for i, spec := range specs {
		meas := runs[i].measurement()
		out.Rows = append(out.Rows, TableRow{
			Model:       spec.ID,
			Description: spec.Link.String(),
			MetalArea:   spec.Link.MetalArea(),
			IPC:         runs[i].AMIPC(),
			RelICDyn:    em10.RelativeICDynamic(meas),
			RelICLkg:    em10.RelativeICLeakage(meas),
			RelEnergy10: em10.RelativeProcessorEnergy(meas),
			RelEnergy20: em20.RelativeProcessorEnergy(meas),
			RelED2At10:  em10.RelativeED2(meas),
			RelED2At20:  em20.RelativeED2(meas),
		})
	}
	return out
}

// Table3 regenerates paper Table 3 (4-cluster systems).
func Table3(opt Options) TableResult { return modelTable(config.Crossbar4, opt) }

// Table4 regenerates paper Table 4 (16-cluster systems).
func Table4(opt Options) TableResult { return modelTable(config.HierRing16, opt) }

// String renders the table in the paper's layout.
func (t TableResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v, all values except IPC normalised to Model-I=100\n", t.Topology)
	tab := stats.NewTable("model", "link (per direction)", "area", "IPC",
		"IC-dyn", "IC-lkg", "E(10%)", "ED2(10%)", "E(20%)", "ED2(20%)")
	for _, r := range t.Rows {
		tab.AddRow(r.Model.String(), r.Description, r.MetalArea, r.IPC,
			r.RelICDyn, r.RelICLkg, r.RelEnergy10, r.RelED2At10, r.RelEnergy20, r.RelED2At20)
	}
	b.WriteString(tab.String())
	return b.String()
}

// BestED2 returns the row with the lowest ED^2 at the given interconnect
// share (10 or 20).
func (t TableResult) BestED2(icPercent int) TableRow {
	best := t.Rows[0]
	for _, r := range t.Rows {
		v, bv := r.RelED2At10, best.RelED2At10
		if icPercent == 20 {
			v, bv = r.RelED2At20, best.RelED2At20
		}
		if v < bv {
			best = r
		}
	}
	return best
}

// LatencySensitivityResult is the Section 1 claim: IPC loss when the
// inter-cluster latency doubles (paper: ~12%).
type LatencySensitivityResult struct {
	BaselineAM   float64
	DoubledAM    float64
	SlowdownPct  float64
	PerBenchmark map[string][2]float64
}

// LatencySensitivity doubles all interconnect latencies on the baseline and
// reports the slowdown.
func LatencySensitivity(opt Options) LatencySensitivityResult {
	opt = opt.withDefaults()
	slow := config.Default()
	slow.LatencyScale = 2
	runs := runSuites([]config.Config{config.Default(), slow}, opt)
	base, s2 := runs[0], runs[1]
	r := LatencySensitivityResult{
		BaselineAM:   base.AMIPC(),
		DoubledAM:    s2.AMIPC(),
		PerBenchmark: make(map[string][2]float64, len(opt.Benchmarks)),
	}
	r.SlowdownPct = 100 * (1 - r.DoubledAM/r.BaselineAM)
	for i, b := range opt.Benchmarks {
		r.PerBenchmark[b] = [2]float64{base[i].IPC(), s2[i].IPC()}
	}
	return r
}

// ScalingResult covers the Section 5.3 scaling studies.
type ScalingResult struct {
	// FourClusterAM and SixteenClusterAM are baseline Model-I IPCs; the
	// paper reports a 17% single-thread improvement from 4 to 16 clusters.
	FourClusterAM    float64
	SixteenClusterAM float64
	ClusterGainPct   float64
	// WireConstrainedGainPct is the L-wire layer speedup with doubled
	// latencies (paper: 7.1%).
	WireConstrainedGainPct float64
	// SixteenClusterLWireGainPct is the L-wire layer speedup on the
	// 16-cluster machine (paper: 7.4%).
	SixteenClusterLWireGainPct float64
}

// ScalingStudies regenerates the Section 5.3 text claims.
func ScalingStudies(opt Options) ScalingResult {
	opt = opt.withDefaults()
	cfg16 := config.Default()
	cfg16.Topology = config.HierRing16
	slow := config.Default()
	slow.LatencyScale = 2
	runs := runSuites([]config.Config{
		config.Default(), cfg16, slow, withLWireLayer(slow), withLWireLayer(cfg16),
	}, opt)
	base4, base16, slowBase, slowLW, lw16 := runs[0], runs[1], runs[2], runs[3], runs[4]

	var r ScalingResult
	r.FourClusterAM = base4.AMIPC()
	r.SixteenClusterAM = base16.AMIPC()
	r.ClusterGainPct = 100 * (r.SixteenClusterAM/r.FourClusterAM - 1)
	r.WireConstrainedGainPct = 100 * (slowLW.AMIPC()/slowBase.AMIPC() - 1)
	r.SixteenClusterLWireGainPct = 100 * (lw16.AMIPC()/base16.AMIPC() - 1)
	return r
}

// ClaimsResult instruments the Section 4 mechanism-level claims.
type ClaimsResult struct {
	// FalseDepPct: loads whose 8-LS-bit partial comparison matched an
	// earlier store but whose full address did not (paper: < 9%).
	FalseDepPct float64
	// NarrowCoveragePct and NarrowFalsePct: narrow predictor quality
	// (paper: 95% and 2%).
	NarrowCoveragePct float64
	NarrowFalsePct    float64
	// NarrowTrafficPct: operand transfers whose value fits 10 bits
	// (paper: 14% of register traffic is in [0, 1023]).
	NarrowTrafficPct float64
	// PWTrafficPct: transfers diverted to PW wires under Model V
	// (paper: 36%).
	PWTrafficPct float64
	// ContentionReductionPct: drop in buffered-contention cycles on the
	// Model V hardware when the Section 4 PW steering criteria are enabled,
	// versus forcing all steerable traffic onto the B plane (paper: the
	// criteria reduce overall contention by 14%).
	ContentionReductionPct float64
	// PWSteeringIPCCostPct: IPC cost of the PW criteria relative to
	// Model IV (paper: ~1%).
	PWSteeringIPCCostPct float64
}

// Claims measures the paper's mechanism-level statistics.
func Claims(opt Options) ClaimsResult {
	opt = opt.withDefaults()
	var r ClaimsResult

	// The L-wire pipeline runs on the Model VII machine. PW diversion and
	// contention compare Model V with the steering criteria against the
	// same hardware with the criteria disabled (everything steerable stays
	// on B-wires), and against Model IV for the IPC cost.
	cfg := config.Default().WithModel(config.ModelVII)
	mvCfg := config.Default().WithModel(config.ModelV)
	runs := runSuites([]config.Config{
		cfg, mvCfg, withoutPWCriteria(mvCfg), config.Default().WithModel(config.ModelIV),
	}, opt)
	run, mv, mvNoCriteria, miv := runs[0], runs[1], runs[2], runs[3]

	var checks, falseDeps, xfers, narrowEligible uint64
	for _, st := range run {
		checks += st.PartialChecks
		falseDeps += st.PartialFalseDeps
		xfers += st.OperandTransfers
		narrowEligible += st.NarrowEligible
	}
	if checks > 0 {
		r.FalseDepPct = 100 * float64(falseDeps) / float64(checks)
	}
	if xfers > 0 {
		r.NarrowTrafficPct = 100 * float64(narrowEligible) / float64(xfers)
	}

	// Narrow predictor rates on one long run. It runs on a Simulator, which
	// exposes the predictor's own counters; Stats does not carry them.
	sim, err := NewSimulator(cfg)
	if err != nil {
		panic(err)
	}
	prof, _ := workload.ByName("gzip")
	sim.Run(workload.NewGenerator(prof), opt.Instructions)
	cov, fr := sim.NarrowPredictorRates()
	r.NarrowCoveragePct = 100 * cov
	r.NarrowFalsePct = 100 * fr

	var pwT, allT, waitOn, waitOff uint64
	for _, st := range mv {
		pwT += st.Net[1].Transfers
		for i := range st.Net {
			allT += st.Net[i].Transfers
		}
		waitOn += st.WaitCycles
	}
	for _, st := range mvNoCriteria {
		waitOff += st.WaitCycles
	}
	if allT > 0 {
		r.PWTrafficPct = 100 * float64(pwT) / float64(allT)
	}
	if waitOff > 0 {
		r.ContentionReductionPct = 100 * (1 - float64(waitOn)/float64(waitOff))
	}
	if miv.AMIPC() > 0 {
		r.PWSteeringIPCCostPct = 100 * (1 - mv.AMIPC()/miv.AMIPC())
	}
	return r
}

// CSV renders the figure as comma-separated rows (benchmark, baseline IPC,
// L-wire IPC) for external plotting.
func (r Figure3Result) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark,baseline_ipc,lwire_ipc\n")
	for i, bench := range r.Benchmarks {
		fmt.Fprintf(&b, "%s,%.4f,%.4f\n", bench, r.BaselineIPC[i], r.LWireIPC[i])
	}
	fmt.Fprintf(&b, "AM,%.4f,%.4f\n", r.BaselineAM, r.LWireAM)
	return b.String()
}

// CSV renders the table as comma-separated rows for external plotting.
func (t TableResult) CSV() string {
	var b strings.Builder
	b.WriteString("model,link,metal_area,ipc,ic_dyn,ic_lkg,energy10,ed2_10,energy20,ed2_20\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%q,%.1f,%.4f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			r.Model, r.Description, r.MetalArea, r.IPC,
			r.RelICDyn, r.RelICLkg, r.RelEnergy10, r.RelED2At10, r.RelEnergy20, r.RelED2At20)
	}
	return b.String()
}

// SortedBenchmarks returns the benchmark names sorted alphabetically (the
// paper's Figure 3 order).
func SortedBenchmarks() []string {
	n := workload.Names()
	sort.Strings(n)
	return n
}

// ExtensionsResult evaluates the future-work directions the paper sketches
// (Sections 5.3 and 7), implemented here as optional techniques on top of
// the Model VII machine.
type ExtensionsResult struct {
	BaseIPC float64 // Model VII with the paper's evaluated techniques
	// FrequentValueIPC adds 8-entry frequent-value compaction so repeated
	// wide values also ride L-wires.
	FrequentValueIPC float64
	FVTrafficPct     float64 // share of operand transfers compacted
	// CriticalWordIPC adds L-wire critical-word returns for L2/memory
	// loads.
	CriticalWordIPC float64
	CriticalWords   uint64
	// AllExtensionsIPC enables everything together.
	AllExtensionsIPC float64
	// TransmissionLineED2 is Model VII's relative ED^2 (vs RC Model VII =
	// 100) when the L plane is implemented as transmission lines (3x lower
	// dynamic energy; paper Section 5.2).
	TransmissionLineED2 float64
}

// Extensions measures the extension techniques.
func Extensions(opt Options) ExtensionsResult {
	opt = opt.withDefaults()
	var r ExtensionsResult

	base := config.Default().WithModel(config.ModelVII)
	fv, cw, all := base, base, base
	fv.Tech.FrequentValueEnc = true
	cw.Tech.CriticalWordOnL = true
	all.Tech.FrequentValueEnc = true
	all.Tech.CriticalWordOnL = true
	runs := runSuites([]config.Config{base, fv, cw, all}, opt)
	baseRun, fvRun, cwRun, allRun := runs[0], runs[1], runs[2], runs[3]

	r.BaseIPC = baseRun.AMIPC()
	r.FrequentValueIPC = fvRun.AMIPC()
	var fvT, opT uint64
	for _, st := range fvRun {
		fvT += st.FVTransfers
		opT += st.OperandTransfers
	}
	if opT > 0 {
		r.FVTrafficPct = 100 * float64(fvT) / float64(opT)
	}
	r.CriticalWordIPC = cwRun.AMIPC()
	for _, st := range cwRun {
		r.CriticalWords += st.CriticalWordOnL
	}
	r.AllExtensionsIPC = allRun.AMIPC()

	// Transmission-line L plane: identical timing at this clock, one third
	// the L-plane dynamic energy.
	rcMeas := baseRun.measurement()
	tlMeas := rcMeas
	tlMeas.TransmissionLineL = true
	em := energy.Model{Baseline: rcMeas, ICFraction: 0.20}
	r.TransmissionLineED2 = em.RelativeED2(tlMeas)
	return r
}

// Bars renders Figure 3 the way the paper draws it: paired horizontal bars
// per benchmark (baseline vs +L-wires), scaled to the given width.
func (r Figure3Result) Bars(width int) string {
	if width < 20 {
		width = 20
	}
	maxIPC := 0.0
	for i := range r.Benchmarks {
		if r.LWireIPC[i] > maxIPC {
			maxIPC = r.LWireIPC[i]
		}
		if r.BaselineIPC[i] > maxIPC {
			maxIPC = r.BaselineIPC[i]
		}
	}
	if maxIPC == 0 {
		return ""
	}
	var b strings.Builder
	bar := func(v float64, ch byte) string {
		n := int(v / maxIPC * float64(width))
		return strings.Repeat(string(ch), n)
	}
	fmt.Fprintf(&b, "%-9s %s\n", "", "baseline '#', +L-wires '=' (IPC, bar width proportional)")
	for i, bench := range r.Benchmarks {
		fmt.Fprintf(&b, "%-9s %-*s %.3f\n", bench, width, bar(r.BaselineIPC[i], '#'), r.BaselineIPC[i])
		fmt.Fprintf(&b, "%-9s %-*s %.3f\n", "", width, bar(r.LWireIPC[i], '='), r.LWireIPC[i])
	}
	fmt.Fprintf(&b, "%-9s %-*s %.3f\n", "AM", width, bar(r.BaselineAM, '#'), r.BaselineAM)
	fmt.Fprintf(&b, "%-9s %-*s %.3f\n", "", width, bar(r.LWireAM, '='), r.LWireAM)
	return b.String()
}

// LatencyCurve sweeps the interconnect latency multiplier and reports the
// AM IPC at each point — extending the Section 1 doubling experiment to a
// curve (and the Section 5.3 wire-constrained argument to arbitrary
// future-technology severity).
type LatencyCurve struct {
	Scales []int
	AMIPC  []float64
	// LWireGainPct is the L-wire layer's speedup at each scale: the
	// paper's claim is that it grows as wires get slower.
	LWireGainPct []float64
}

// SweepLatencyScale runs the baseline and the +L-wire machine at each
// latency multiplier.
func SweepLatencyScale(scales []int, opt Options) LatencyCurve {
	opt = opt.withDefaults()
	var cfgs []config.Config
	for _, sc := range scales {
		base := config.Default()
		base.LatencyScale = sc
		cfgs = append(cfgs, base, withLWireLayer(base))
	}
	runs := runSuites(cfgs, opt)
	var out LatencyCurve
	for i, sc := range scales {
		b, l := runs[2*i], runs[2*i+1]
		out.Scales = append(out.Scales, sc)
		out.AMIPC = append(out.AMIPC, b.AMIPC())
		out.LWireGainPct = append(out.LWireGainPct, 100*(l.AMIPC()/b.AMIPC()-1))
	}
	return out
}
