package hetwire

import (
	"cmp"
	"fmt"
	"slices"

	"hetwire/internal/config"
)

// Finding is one reproduction check's outcome.
type Finding struct {
	Name   string
	OK     bool
	Detail string
}

// String renders a check result line.
func (f Finding) String() string {
	mark := "ok  "
	if !f.OK {
		mark = "FAIL"
	}
	return fmt.Sprintf("%s  %-46s %s", mark, f.Name, f.Detail)
}

// VerifyReproduction runs the paper's headline experiments at the given
// scale and checks every qualitative claim the reproduction stands on:
// the direction of each effect and the bounds the paper states. It is the
// repository's self-test against the paper — `cmd/experiments -verify`
// runs it and exits non-zero if any check fails.
func VerifyReproduction(opt Options) []Finding {
	opt = opt.withDefaults()
	var out []Finding
	add := func(name string, ok bool, format string, args ...any) {
		out = append(out, Finding{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	// Figure 3: the L-wire layer helps, and helps every benchmark.
	fig3 := Figure3(opt)
	add("Figure 3: L-wire layer speeds up the AM IPC", fig3.SpeedupPct > 0,
		"%+.1f%% (paper: +4.2%%)", fig3.SpeedupPct)
	allUp := true
	for i := range fig3.Benchmarks {
		if fig3.LWireIPC[i] <= fig3.BaselineIPC[i] {
			allUp = false
		}
	}
	add("Figure 3: every benchmark improves", allUp, "%d benchmarks", len(fig3.Benchmarks))

	// Table 3: heterogeneity wins ED^2 at both interconnect shares; the
	// energy columns track the paper's arithmetic.
	t3 := Table3(opt)
	homog := map[ModelID]bool{ModelI: true, ModelIV: true, ModelVIII: true}
	b10, b20 := t3.BestED2(10), t3.BestED2(20)
	add("Table 3: best ED2 @10% is heterogeneous", !homog[b10.Model],
		"%v at %.1f (paper: Model-IX at 92.0)", b10.Model, b10.RelED2At10)
	add("Table 3: best ED2 @20% is heterogeneous", !homog[b20.Model],
		"%v at %.1f (paper: Model-III at 92.1)", b20.Model, b20.RelED2At20)
	iiDyn := t3.Rows[1].RelICDyn
	add("Table 3: Model II IC dynamic energy ~52", iiDyn > 45 && iiDyn < 60,
		"%.1f (paper: 52)", iiDyn)
	ivLkg := t3.Rows[3].RelICLkg
	add("Table 3: Model IV IC leakage ~194", ivLkg > 170 && ivLkg < 220,
		"%.1f (paper: 194)", ivLkg)

	// Table 4: on 16 clusters heterogeneity still wins ED^2, and IPC puts
	// Model IX on top and Model II at the bottom, as the paper's does.
	t4 := Table4(opt)
	b4 := t4.BestED2(20)
	add("Table 4: best ED2 @20% is heterogeneous", !homog[b4.Model],
		"%v at %.1f (paper: Models VII and IX at 88.7)", b4.Model, b4.RelED2At20)
	byIPC := func(a, b TableRow) int { return cmp.Compare(a.IPC, b.IPC) }
	top, bottom := slices.MaxFunc(t4.Rows, byIPC), slices.MinFunc(t4.Rows, byIPC)
	add("Table 4: IPC ranks Model IX first", top.Model == ModelIX,
		"%v at %.3f (paper: Model-IX at 1.22)", top.Model, top.IPC)
	add("Table 4: IPC ranks Model II last", bottom.Model == ModelII,
		"%v at %.3f (paper: Model-II at 1.05)", bottom.Model, bottom.IPC)

	// Section 1: latency sensitivity direction.
	lat := LatencySensitivity(opt)
	add("Section 1: doubling latency degrades IPC", lat.SlowdownPct > 0,
		"-%.1f%% (paper: -12%%)", lat.SlowdownPct)

	// Section 5.3: scaling relationships.
	sc := ScalingStudies(opt)
	add("Section 5.3: 16 clusters beat 4", sc.ClusterGainPct > 0,
		"%+.1f%% (paper: +17%%)", sc.ClusterGainPct)
	add("Section 5.3: L-wires worth more when wire-constrained",
		sc.WireConstrainedGainPct > fig3.SpeedupPct*0.8,
		"%+.1f%% vs %+.1f%% nominal (paper: 7.1%% vs 4.2%%)",
		sc.WireConstrainedGainPct, fig3.SpeedupPct)
	add("Section 5.3: L-wires worth more on 16 clusters",
		sc.SixteenClusterLWireGainPct > 0,
		"%+.1f%% (paper: +7.4%%)", sc.SixteenClusterLWireGainPct)

	// Section 4 mechanism bounds.
	cl := Claims(opt)
	add("Section 4: false partial-address deps < 9%", cl.FalseDepPct < 9 && cl.FalseDepPct > 0,
		"%.1f%% (paper bound: 9%%)", cl.FalseDepPct)
	add("Section 4: narrow coverage near 95%", cl.NarrowCoveragePct > 85,
		"%.1f%% (paper: 95%%)", cl.NarrowCoveragePct)
	add("Section 4: false-narrow rate near 2%", cl.NarrowFalsePct < 5,
		"%.1f%% (paper: 2%%)", cl.NarrowFalsePct)
	add("Section 4: narrow operand traffic near 14%",
		cl.NarrowTrafficPct > 8 && cl.NarrowTrafficPct < 22,
		"%.1f%% (paper: 14%%)", cl.NarrowTrafficPct)
	add("Section 4: PW steering IPC cost small", cl.PWSteeringIPCCostPct < 5,
		"%.1f%% (paper: ~1%%)", cl.PWSteeringIPCCostPct)
	add("Section 4: PW criteria reduce contention", cl.ContentionReductionPct > 0,
		"%.1f%% (paper: 14%%)", cl.ContentionReductionPct)

	// Section 3 design choice: plane heterogeneity >= link heterogeneity.
	plane := runSuite(config.Default().WithModel(config.ModelV), opt)
	lh := config.Default().WithModel(config.ModelV)
	lh.LinkHeterogeneous = true
	linkRun := runSuite(lh, opt)
	add("Section 3: plane heterogeneity >= link heterogeneity",
		plane.AMIPC() >= linkRun.AMIPC()*0.98,
		"plane %.3f vs link %.3f IPC", plane.AMIPC(), linkRun.AMIPC())

	return out
}

// AllOK reports whether every finding passed.
func AllOK(fs []Finding) bool {
	for _, f := range fs {
		if !f.OK {
			return false
		}
	}
	return true
}
