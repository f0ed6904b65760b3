package energy

import (
	"math"
	"testing"

	"hetwire/internal/config"
	"hetwire/internal/noc"
	"hetwire/internal/wires"
)

func baselineRun() RunMeasurement {
	// Model-I-like: 1M cycles, 1M B bit-hops, 864 B wire-units.
	var m RunMeasurement
	m.Cycles = 1_000_000
	m.Net[0] = noc.ClassStats{BitHops: 1_000_000}
	m.Inventory = map[wires.Class]float64{wires.B: 864}
	return m
}

func TestBaselineNormalisesTo100(t *testing.T) {
	em := Model{Baseline: baselineRun(), ICFraction: 0.10}
	b := em.Evaluate(baselineRun())
	if math.Abs(b.Total()-100) > 1e-9 {
		t.Fatalf("baseline total = %f, want 100", b.Total())
	}
	// 10% interconnect, 3:7 leakage:dynamic everywhere.
	if math.Abs(b.ICDynamic+b.ICLeakage-10) > 1e-9 {
		t.Errorf("interconnect share = %f, want 10", b.ICDynamic+b.ICLeakage)
	}
	if math.Abs(b.NonICDynamic-63) > 1e-9 || math.Abs(b.NonICLeakage-27) > 1e-9 {
		t.Errorf("non-IC split = %f/%f, want 63/27", b.NonICDynamic, b.NonICLeakage)
	}
	if em.RelativeED2(baselineRun()) != 100 || em.RelativeProcessorEnergy(baselineRun()) != 100 {
		t.Error("baseline relative metrics must be 100")
	}
}

// TestPWTrafficCheaper reproduces the Model II arithmetic from the paper:
// moving all dynamic traffic from B to PW wires scales interconnect dynamic
// energy by 0.30/0.58 ~ 52%.
func TestPWTrafficCheaper(t *testing.T) {
	em := Model{Baseline: baselineRun(), ICFraction: 0.10}
	var pw RunMeasurement
	pw.Cycles = 1_000_000
	pw.Net[1] = noc.ClassStats{BitHops: 1_000_000} // same bits, PW plane
	pw.Inventory = map[wires.Class]float64{wires.PW: 2 * 864}
	rel := em.RelativeICDynamic(pw)
	want := 100 * wires.Table2[wires.PW].RelDynPerWire / wires.Table2[wires.B].RelDynPerWire
	if math.Abs(rel-want) > 1e-6 {
		t.Errorf("PW relative dynamic = %.2f, want %.2f", rel, want)
	}
	// Leakage: twice the wires at 0.30/0.55 per-wire leakage.
	lkg := em.RelativeICLeakage(pw)
	wantLkg := 100 * (2 * 864 * 0.30) / (864 * 0.55)
	if math.Abs(lkg-wantLkg) > 1e-6 {
		t.Errorf("PW relative leakage = %.2f, want %.2f", lkg, wantLkg)
	}
}

// TestSlowerRunPaysLeakageAndED2: a run with 10% more cycles pays 10% more
// leakage (interconnect and core) and ~21% more D^2.
func TestSlowerRunPaysLeakageAndED2(t *testing.T) {
	em := Model{Baseline: baselineRun(), ICFraction: 0.10}
	slow := baselineRun()
	slow.Cycles = 1_100_000
	b := em.Evaluate(slow)
	if math.Abs(b.NonICLeakage-27*1.1) > 1e-9 {
		t.Errorf("non-IC leakage = %f, want %f", b.NonICLeakage, 27*1.1)
	}
	if math.Abs(b.ICLeakage-3*1.1) > 1e-9 {
		t.Errorf("IC leakage = %f, want %f", b.ICLeakage, 3*1.1)
	}
	ed2 := em.RelativeED2(slow)
	// energy ratio ~ (63+29.7+7+3.3)/100 = 1.03; times 1.21 cycles^2.
	want := 100 * 1.03 * 1.21
	if math.Abs(ed2-want) > 0.5 {
		t.Errorf("ED2 = %.2f, want ~%.2f", ed2, want)
	}
}

// TestICFraction20DoublesInterconnectImpact: with a 20% interconnect share,
// halving interconnect dynamic energy saves twice as much total energy as
// with a 10% share.
func TestICFraction20DoublesInterconnectImpact(t *testing.T) {
	cheap := baselineRun()
	cheap.Net[0].BitHops = 500_000 // half the traffic energy

	e10 := Model{Baseline: baselineRun(), ICFraction: 0.10}
	e20 := Model{Baseline: baselineRun(), ICFraction: 0.20}
	s10 := 100 - e10.RelativeProcessorEnergy(cheap)
	s20 := 100 - e20.RelativeProcessorEnergy(cheap)
	if math.Abs(s20-2*s10) > 1e-6 {
		t.Errorf("savings at 20%% (%f) should be twice savings at 10%% (%f)", s20, s10)
	}
}

// TestMixedClassTraffic: energy adds linearly over classes with Table 2
// weights.
func TestMixedClassTraffic(t *testing.T) {
	var m RunMeasurement
	m.Cycles = 1
	m.Net[0] = noc.ClassStats{BitHops: 100} // B
	m.Net[1] = noc.ClassStats{BitHops: 100} // PW
	m.Net[2] = noc.ClassStats{BitHops: 100} // L
	got := InterconnectDynamic(m)
	want := 100*0.58 + 100*0.30 + 100*0.84
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("mixed dynamic = %f, want %f", got, want)
	}
}

func TestZeroBaselineGuards(t *testing.T) {
	em := Model{Baseline: RunMeasurement{Cycles: 1}, ICFraction: 0.10}
	run := baselineRun()
	if em.RelativeICDynamic(run) != 0 || em.RelativeICLeakage(run) != 0 {
		t.Error("zero-baseline relative metrics should be 0, not NaN")
	}
}

// TestTransmissionLineLCutsDynamicEnergy: the TL option scales only the L
// plane's dynamic energy by one third.
func TestTransmissionLineLCutsDynamicEnergy(t *testing.T) {
	var m RunMeasurement
	m.Cycles = 1
	m.Net[0] = noc.ClassStats{BitHops: 300} // B
	m.Net[2] = noc.ClassStats{BitHops: 300} // L
	rc := InterconnectDynamic(m)
	m.TransmissionLineL = true
	tl := InterconnectDynamic(m)
	wantDelta := 300 * wires.Table2[wires.L].RelDynPerWire * 2 / 3
	if math.Abs((rc-tl)-wantDelta) > 1e-9 {
		t.Errorf("TL saved %f, want %f", rc-tl, wantDelta)
	}
}

// TestLeakageSumsInOneOrder: a link of 72 B, 72 PW and 18 L wires (one of
// the compositions the area explorer lists from area 2.5) leaks a total
// whose last bit depends on the order its classes are added in. Evaluated
// 200 times on each topology, its leakage takes one value.
func TestLeakageSumsInOneOrder(t *testing.T) {
	for _, topo := range []config.Topology{config.Crossbar4, config.HierRing16} {
		cfg := config.Default()
		cfg.Model.Link = config.LinkSpec{BWires: 72, PWWires: 72, LWires: 18}
		cfg.Topology = topo
		m := RunMeasurement{Cycles: 1, Inventory: noc.New(cfg, nil).LinkInventory()}
		want := InterconnectLeakage(m)
		for i := 0; i < 200; i++ {
			if got := InterconnectLeakage(m); got != want {
				t.Fatalf("%v: leakage %v, then %v", topo, want, got)
			}
		}
	}
}
