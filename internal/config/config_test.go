package config

import (
	"testing"

	"hetwire/internal/wires"
)

// TestDefaultMatchesTable1 pins the simulator defaults to the paper's
// Table 1.
func TestDefaultMatchesTable1(t *testing.T) {
	c := DefaultCore()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"fetch queue", c.FetchQueueSize, 64},
		{"fetch width", c.FetchWidth, 8},
		{"basic blocks per fetch", c.MaxBlocksFetch, 2},
		{"bimodal size", c.BimodalSize, 16384},
		{"level-1 predictor", c.L1PredSize, 16384},
		{"history bits", c.HistoryBits, 12},
		{"level-2 predictor", c.L2PredSize, 16384},
		{"BTB sets", c.BTBSets, 16384},
		{"BTB assoc", c.BTBAssoc, 2},
		{"min mispredict penalty", c.MinMispredictPenalty, 12},
		{"issue queue per cluster", c.IssueQPerClust, 15},
		{"registers per cluster", c.RegsPerClust, 32},
		{"int ALUs", c.IntALUs, 1},
		{"fp ALUs", c.FPALUs, 1},
		{"ROB", c.ROBSize, 480},
		{"L1I KB", c.L1ISizeKB, 32},
		{"L1I assoc", c.L1IAssoc, 2},
		{"L1D KB", c.L1DSizeKB, 32},
		{"L1D assoc", c.L1DAssoc, 4},
		{"L1D latency", c.L1DLatency, 6},
		{"L1D banks", c.L1DBanks, 4},
		{"L2 MB", c.L2SizeMB, 8},
		{"L2 assoc", c.L2Assoc, 8},
		{"L2 latency", c.L2Latency, 30},
		{"memory latency", c.MemLatency, 300},
		{"TLB entries", c.TLBEntries, 128},
		{"page bytes", c.PageBytes, 8192},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

// TestModelLinkSpecs pins the ten models' wire mixes to the Table 3 captions
// (per-direction counts are half the per-link totals).
func TestModelLinkSpecs(t *testing.T) {
	want := map[ModelID]LinkSpec{
		ModelI:    {BWires: 72},
		ModelII:   {PWWires: 144},
		ModelIII:  {PWWires: 72, LWires: 18},
		ModelIV:   {BWires: 144},
		ModelV:    {BWires: 72, PWWires: 144},
		ModelVI:   {PWWires: 144, LWires: 18},
		ModelVII:  {BWires: 72, LWires: 18},
		ModelVIII: {BWires: 216},
		ModelIX:   {BWires: 144, LWires: 18},
		ModelX:    {BWires: 72, PWWires: 144, LWires: 18},
	}
	if len(Models()) != 10 {
		t.Fatalf("expected 10 models, got %d", len(Models()))
	}
	for id, spec := range want {
		if got := Model(id).Link; got != spec {
			t.Errorf("%v link = %+v, want %+v", id, got, spec)
		}
	}
}

// TestModelMetalArea reproduces the "Relative Metal Area" column of
// Table 3: I=1.0, II=1.0, III=1.5, IV..VII=2.0, VIII..X=3.0.
func TestModelMetalArea(t *testing.T) {
	want := map[ModelID]float64{
		ModelI: 1.0, ModelII: 1.0, ModelIII: 1.5,
		ModelIV: 2.0, ModelV: 2.0, ModelVI: 2.0, ModelVII: 2.0,
		ModelVIII: 3.0, ModelIX: 3.0, ModelX: 3.0,
	}
	for id, area := range want {
		got := Model(id).Link.MetalArea()
		if got != area {
			t.Errorf("%v metal area = %.2f, want %.2f", id, got, area)
		}
	}
}

// TestBandwidths checks transfer-per-cycle conversion and cache-link
// doubling.
func TestBandwidths(t *testing.T) {
	l := Model(ModelX).Link
	if l.Bandwidth(wires.B) != 1 || l.Bandwidth(wires.PW) != 2 || l.Bandwidth(wires.L) != 1 {
		t.Errorf("Model X bandwidths = %d/%d/%d, want 1/2/1",
			l.Bandwidth(wires.B), l.Bandwidth(wires.PW), l.Bandwidth(wires.L))
	}
	d := l.Double()
	if d.Bandwidth(wires.B) != 2 || d.Bandwidth(wires.PW) != 4 || d.Bandwidth(wires.L) != 2 {
		t.Errorf("cache link bandwidths = %d/%d/%d, want 2/4/2",
			d.Bandwidth(wires.B), d.Bandwidth(wires.PW), d.Bandwidth(wires.L))
	}
	if !l.Has(wires.L) || l.Has(wires.W) {
		t.Error("Has() misreports class availability")
	}
}

// TestWithModelEnablesOnlySupportedTechniques checks that WithModel turns on
// exactly the techniques the wire mix supports.
func TestWithModelEnablesOnlySupportedTechniques(t *testing.T) {
	base := Default()

	m1 := base.WithModel(ModelI) // B only
	if m1.Tech.LWireCachePipeline || m1.Tech.NarrowOperands || m1.Tech.PWStoreData || m1.Tech.PWLoadBalance {
		t.Errorf("Model I should support no heterogeneous techniques, got %+v", m1.Tech)
	}

	m7 := base.WithModel(ModelVII) // B + L
	if !m7.Tech.LWireCachePipeline || !m7.Tech.NarrowOperands || !m7.Tech.MispredictOnL {
		t.Errorf("Model VII must enable the L-wire techniques, got %+v", m7.Tech)
	}
	if m7.Tech.PWStoreData || m7.Tech.PWReadyOperands {
		t.Errorf("Model VII has no PW wires; PW steering must stay off, got %+v", m7.Tech)
	}

	m5 := base.WithModel(ModelV) // B + PW
	if !m5.Tech.PWStoreData || !m5.Tech.PWReadyOperands || !m5.Tech.PWLoadBalance {
		t.Errorf("Model V must enable PW steering, got %+v", m5.Tech)
	}
	if m5.Tech.LWireCachePipeline {
		t.Errorf("Model V has no L wires; L techniques must stay off")
	}

	m2 := base.WithModel(ModelII) // PW only
	if m2.Tech.PWLoadBalance {
		t.Error("Model II has a single wire class; load balancing must stay off")
	}

	for _, spec := range Models() {
		cfg := base.WithModel(spec.ID)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: WithModel produced invalid config: %v", spec.ID, err)
		}
	}
}

// TestLatencies pins the per-class cycle latencies and the wire-constrained
// scaling used by Section 5.3.
func TestLatencies(t *testing.T) {
	c := Default()
	if c.Latency(wires.B) != 2 || c.Latency(wires.PW) != 3 || c.Latency(wires.L) != 1 {
		t.Errorf("crossbar latencies = %d/%d/%d, want 2/3/1",
			c.Latency(wires.B), c.Latency(wires.PW), c.Latency(wires.L))
	}
	c.LatencyScale = 2
	if c.Latency(wires.B) != 4 || c.Latency(wires.PW) != 6 || c.Latency(wires.L) != 2 {
		t.Errorf("scaled latencies = %d/%d/%d, want 4/6/2",
			c.Latency(wires.B), c.Latency(wires.PW), c.Latency(wires.L))
	}
	if c.RingLatency(wires.B) != 8 || c.RingLatency(wires.L) != 4 {
		t.Errorf("scaled ring latencies = %d/%d, want 8/4",
			c.RingLatency(wires.B), c.RingLatency(wires.L))
	}
}

// TestValidateRejectsBadConfigs exercises the error paths.
func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}

	bad := good
	bad.Core.ROBSize = 0
	if bad.Validate() == nil {
		t.Error("zero ROB accepted")
	}

	bad = good
	bad.Tech.LWireCachePipeline = true // Model I has no L wires
	if bad.Validate() == nil {
		t.Error("L-wire pipeline without L wires accepted")
	}

	bad = good.WithModel(ModelVII)
	bad.Tech.LSBits = 2
	if bad.Validate() == nil {
		t.Error("absurd LSBits accepted")
	}

	bad = good
	bad.LatencyScale = 0
	if bad.Validate() == nil {
		t.Error("zero latency scale accepted")
	}

	bad = good
	bad.Model.Link = LinkSpec{}
	if bad.Validate() == nil {
		t.Error("wireless interconnect accepted")
	}
}

// TestValidateBoundsFUCounts: each functional-unit count sizes a calendar's
// per-cycle capacity, so it must lie in [1, sched.MaxCalendarCapacity].
func TestValidateBoundsFUCounts(t *testing.T) {
	for _, field := range []struct {
		name string
		set  func(*Core, int)
	}{
		{"IntALUs", func(k *Core, v int) { k.IntALUs = v }},
		{"IntMulDiv", func(k *Core, v int) { k.IntMulDiv = v }},
		{"FPALUs", func(k *Core, v int) { k.FPALUs = v }},
		{"FPMulDiv", func(k *Core, v int) { k.FPMulDiv = v }},
	} {
		for v, ok := range map[int]bool{0: false, 1: true, 2: true, 255: true, 256: false} {
			c := Default()
			field.set(&c.Core, v)
			if err := c.Validate(); (err == nil) != ok {
				t.Errorf("%s = %d: Validate() = %v, want accepted %v", field.name, v, err, ok)
			}
		}
	}
}

// TestTopologyHelpers covers the topology enum.
func TestTopologyHelpers(t *testing.T) {
	if Crossbar4.Clusters() != 4 || HierRing16.Clusters() != 16 {
		t.Error("cluster counts wrong")
	}
	if Crossbar4.String() == "" || HierRing16.String() == "" || Topology(9).String() == "" {
		t.Error("topology names must be non-empty")
	}
}

// TestLinkSpecString covers the table-style rendering.
func TestLinkSpecString(t *testing.T) {
	if s := Model(ModelX).Link.String(); s != "72 B-Wires, 144 PW-Wires, 18 L-Wires" {
		t.Errorf("Model X link string = %q", s)
	}
	if s := (LinkSpec{}).String(); s != "(no wires)" {
		t.Errorf("empty link string = %q", s)
	}
}

// TestSteeringPolicyNames covers the enum.
func TestSteeringPolicyNames(t *testing.T) {
	if SteerDynamic.String() != "dynamic" || SteerStatic.String() != "static-hash" ||
		SteerRoundRobin.String() != "round-robin" || SteeringPolicy(7).String() == "" {
		t.Error("steering policy names wrong")
	}
	if Default().Steering != SteerDynamic {
		t.Error("default steering must be the paper's dynamic heuristic")
	}
}

// TestExtensionValidation: L-wire extensions need L wires.
func TestExtensionValidation(t *testing.T) {
	cfg := Default() // Model I
	cfg.Tech.TransmissionLineL = true
	if cfg.Validate() == nil {
		t.Error("transmission-line L plane accepted without L wires")
	}
	cfg = Default().WithModel(ModelVII)
	cfg.Tech.TransmissionLineL = true
	cfg.Tech.FrequentValueEnc = true
	cfg.Tech.CriticalWordOnL = true
	if err := cfg.Validate(); err != nil {
		t.Errorf("extensions rejected on an L-wire model: %v", err)
	}
}
