package hetwire

import (
	"sort"

	"hetwire/internal/config"
	"hetwire/internal/energy"
)

// DesignPoint is one candidate link composition in a design-space
// exploration, with its measured performance and energy.
type DesignPoint struct {
	Link       config.LinkSpec
	MetalArea  float64
	IPC        float64
	RelEnergy  float64 // relative processor energy vs the B-only baseline
	RelED2     float64 // relative ED^2 vs the B-only baseline
	PaperModel ModelID // matching named model, or 0 if novel
}

// ExploreResult is a full design-space sweep under one metal-area budget.
type ExploreResult struct {
	AreaBudget float64
	ICFraction float64
	// Points contains every evaluated composition, sorted by ascending
	// relative ED^2 (best first).
	Points []DesignPoint
}

// Best returns the ED^2-optimal design.
func (r ExploreResult) Best() DesignPoint { return r.Points[0] }

// enumerateLinks lists every feasible heterogeneous link composition within
// the metal-area budget, in deterministic enumeration order: wires step in
// whole transfer widths (72 B, 72 PW, 18 L per direction) and at least one
// wide (B or PW) plane is required for 72-bit messages.
func enumerateLinks(areaBudget float64) []config.LinkSpec {
	var links []config.LinkSpec
	for b := 0; b*72 <= int(areaBudget*144/2); b++ {
		for pw := 0; ; pw++ {
			areaSoFar := (2*float64(b*72) + float64(pw*72)) / 144
			if areaSoFar > areaBudget+1e-9 {
				break
			}
			for l := 0; ; l++ {
				link := config.LinkSpec{BWires: b * 72, PWWires: pw * 72, LWires: l * 18}
				if link.MetalArea() > areaBudget+1e-9 {
					break
				}
				if b == 0 && pw == 0 {
					l++
					continue // need a wide plane for 72-bit messages
				}
				links = append(links, link)
			}
		}
	}
	return links
}

// ExploreArea enumerates every feasible heterogeneous link composition
// within the given metal-area budget (in Model-I link units: Model I = 1.0,
// the paper's largest designs = 3.0), simulates each on the benchmark
// suite, and ranks them by total-processor ED^2 — making the paper's
// Section 3 remark ("evaluations of this nature help identify the most
// promising ways to exploit such a resource") an executable query.
//
// The baseline and every design run on the benchmark suite as one flat
// batch (runSuites), so scenario-level parallelism covers the entire
// exploration; icFraction is the interconnect share of baseline processor
// energy (0.10 or 0.20).
func ExploreArea(areaBudget, icFraction float64, opt Options) ExploreResult {
	opt = opt.withDefaults()
	res := ExploreResult{AreaBudget: areaBudget, ICFraction: icFraction}

	// Configuration 0 is the normalisation baseline, the paper's Model I;
	// configuration i+1 is link i.
	links := enumerateLinks(areaBudget)
	cfgs := make([]config.Config, len(links)+1)
	cfgs[0] = config.Default()
	for i, link := range links {
		cfgs[i+1] = config.Default().WithLink(link)
	}
	runs := runSuites(cfgs, opt)
	em := energy.Model{Baseline: runs[0].measurement(), ICFraction: icFraction}

	named := make(map[config.LinkSpec]ModelID, 10)
	for _, m := range config.Models() {
		named[m.Link] = m.ID
	}
	for i, link := range links {
		meas := runs[i+1].measurement()
		res.Points = append(res.Points, DesignPoint{
			Link:       link,
			MetalArea:  link.MetalArea(),
			IPC:        runs[i+1].AMIPC(),
			RelEnergy:  em.RelativeProcessorEnergy(meas),
			RelED2:     em.RelativeED2(meas),
			PaperModel: named[link],
		})
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].RelED2 < res.Points[j].RelED2 })
	return res
}
