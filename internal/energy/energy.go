// Package energy implements the paper's energy accounting (Section 5.4):
// interconnect dynamic energy from per-class traffic, interconnect leakage
// from the wire inventory and cycle count, and whole-processor energy and
// ED^2 under the paper's normalisation, where interconnect energy accounts
// for a given fraction (10% or 20%) of total processor energy in Model I
// and processor leakage:dynamic is 3:7.
package energy

import (
	"hetwire/internal/noc"
	"hetwire/internal/wires"
)

// RunMeasurement is the slice of a simulation run the energy model needs.
type RunMeasurement struct {
	Cycles uint64
	// Net carries per-class traffic (bits transferred, weighted by path
	// length) in the order B, PW, L.
	Net [3]noc.ClassStats
	// Inventory is the physical wire-length units per class present in the
	// network (from noc.Network.LinkInventory).
	Inventory map[wires.Class]float64
	// TransmissionLineL scales L-plane dynamic energy by one third: Chang
	// et al. report a 3x energy reduction for transmission-line signalling
	// versus repeated RC wires (paper Section 5.2).
	TransmissionLineL bool
}

// classOrder maps the Net array indices to classes.
var classOrder = [3]wires.Class{wires.B, wires.PW, wires.L}

// InterconnectDynamic returns the interconnect dynamic energy of a run in
// normalised units: each transferred bit-hop costs the per-wire relative
// dynamic energy of its class (paper Table 2).
func InterconnectDynamic(m RunMeasurement) float64 {
	var e float64
	for i, c := range classOrder {
		w := wires.Table2[c].RelDynPerWire
		if c == wires.L && m.TransmissionLineL {
			w /= 3
		}
		e += float64(m.Net[i].BitHops) * w
	}
	return e
}

// InterconnectLeakage returns the interconnect leakage energy of a run:
// every physical wire leaks every cycle in proportion to its class's
// relative leakage power. The classes are summed in classOrder, not in the
// inventory map's random order, so one run always gives one value.
func InterconnectLeakage(m RunMeasurement) float64 {
	var perCycle float64
	for _, c := range classOrder {
		perCycle += m.Inventory[c] * wires.Table2[c].RelLeakPerWire
	}
	return perCycle * float64(m.Cycles)
}

// Breakdown is the normalised energy decomposition of one model's run,
// relative to a baseline run (typically Model I), following the paper's
// method exactly:
//
//   - non-interconnect dynamic energy scales with instruction count (equal
//     across runs of the same program set, so it is constant),
//   - non-interconnect leakage scales with cycle count,
//   - interconnect dynamic and leakage scale with the simulated traffic and
//     inventory,
//   - in the baseline, interconnect energy is ICFraction of the total and
//     leakage:dynamic is 3:7 overall (applied to both components).
type Breakdown struct {
	NonICDynamic float64
	NonICLeakage float64
	ICDynamic    float64
	ICLeakage    float64
}

// Total returns the total processor energy.
func (b Breakdown) Total() float64 {
	return b.NonICDynamic + b.NonICLeakage + b.ICDynamic + b.ICLeakage
}

// Model computes energy results for one configuration run against a
// baseline run. icFraction is the interconnect share of total processor
// energy in the baseline (the paper evaluates 0.10 and 0.20).
type Model struct {
	Baseline   RunMeasurement
	ICFraction float64
}

// leakDynSplit is the paper's processor-wide leakage:dynamic ratio (3:7)
// in Model I.
const (
	leakShare = 0.3
	dynShare  = 0.7
)

// Evaluate returns the normalised breakdown for a run: the baseline run
// maps to a total of exactly 100 units.
func (em Model) Evaluate(run RunMeasurement) Breakdown {
	const totalUnits = 100.0
	icUnits := totalUnits * em.ICFraction
	nonIC := totalUnits - icUnits

	baseICDyn := InterconnectDynamic(em.Baseline)
	baseICLkg := InterconnectLeakage(em.Baseline)

	var b Breakdown
	// Non-interconnect: dynamic fixed (same instruction count), leakage
	// scales with cycles.
	b.NonICDynamic = nonIC * dynShare
	b.NonICLeakage = nonIC * leakShare * float64(run.Cycles) / float64(em.Baseline.Cycles)
	// Interconnect: the baseline's icUnits split 7:3 dynamic:leakage, each
	// component scaling with the simulated quantity.
	if baseICDyn > 0 {
		b.ICDynamic = icUnits * dynShare * InterconnectDynamic(run) / baseICDyn
	}
	if baseICLkg > 0 {
		b.ICLeakage = icUnits * leakShare * InterconnectLeakage(run) / baseICLkg
	}
	return b
}

// RelativeICDynamic returns the run's interconnect dynamic energy relative
// to the baseline's, scaled to 100 (the paper's "Relative interconnect
// dyn-energy" column).
func (em Model) RelativeICDynamic(run RunMeasurement) float64 {
	base := InterconnectDynamic(em.Baseline)
	if base == 0 {
		return 0
	}
	return 100 * InterconnectDynamic(run) / base
}

// RelativeICLeakage is the paper's "Relative interconnect lkg-energy"
// column.
func (em Model) RelativeICLeakage(run RunMeasurement) float64 {
	base := InterconnectLeakage(em.Baseline)
	if base == 0 {
		return 0
	}
	return 100 * InterconnectLeakage(run) / base
}

// RelativeProcessorEnergy is the paper's "Relative Processor Energy"
// column: run total over baseline total, scaled to 100.
func (em Model) RelativeProcessorEnergy(run RunMeasurement) float64 {
	return 100 * em.Evaluate(run).Total() / em.Evaluate(em.Baseline).Total()
}

// RelativeED2 is the paper's ED^2 column: total processor energy times the
// square of execution cycles, relative to the baseline, scaled to 100.
func (em Model) RelativeED2(run RunMeasurement) float64 {
	r := em.Evaluate(run).Total() * float64(run.Cycles) * float64(run.Cycles)
	b := em.Evaluate(em.Baseline).Total() * float64(em.Baseline.Cycles) * float64(em.Baseline.Cycles)
	return 100 * r / b
}
