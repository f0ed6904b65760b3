// Package narrow implements the paper's narrow bit-width operand machinery
// (Section 4): a leading-zero-based width check (the PowerPC 603 precedent)
// deciding whether a result fits the 10 data bits an 18-bit L-wire transfer
// can carry, and the 8K-entry 2-bit saturating-counter predictor that
// supplies this information early in the pipeline. The paper reports the
// predictor identifies 95% of narrow results while mispredicting only 2% of
// predicted-narrow values; tests reproduce those rates on workload-like
// value streams.
package narrow

// IsNarrow reports whether a result value fits in maxBits bits, i.e. lies
// in [0, 2^maxBits). This is what leading-zero-detect hardware computes.
func IsNarrow(value uint64, maxBits int) bool {
	if maxBits <= 0 {
		return false
	}
	if maxBits >= 64 {
		return true
	}
	return value < 1<<uint(maxBits)
}

// Predictor is an 8K-entry (configurable) table of 2-bit saturating
// counters indexed by instruction PC. A result is predicted narrow only
// when its counter is saturated at 3 — the paper's high-confidence policy,
// which trades a little coverage for a very low false-narrow rate.
type Predictor struct {
	table []uint8
	mask  uint64

	// Statistics for the Section 4 claims.
	Predictions     uint64 // total queries
	PredictedNarrow uint64 // predicted narrow (counter == 3)
	ActualNarrow    uint64 // outcomes that were narrow
	TruePositives   uint64 // predicted narrow and actually narrow
	FalsePositives  uint64 // predicted narrow but wide (must re-send)
}

// NewPredictor builds a predictor with the given number of entries
// (power of two; the paper uses 8K).
func NewPredictor(entries int) *Predictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("narrow: predictor entries must be a positive power of two")
	}
	return &Predictor{table: make([]uint8, entries), mask: uint64(entries - 1)}
}

func (p *Predictor) idx(pc uint64) uint64 { return (pc >> 2) & p.mask }

// Predict reports whether the instruction at pc is predicted to produce a
// narrow result (counter saturated at 3).
func (p *Predictor) Predict(pc uint64) bool {
	return p.table[p.idx(pc)] == 3
}

// Record scores the prediction against the actual outcome and trains the
// counter. It returns the prediction that was in effect.
func (p *Predictor) Record(pc uint64, actualNarrow bool) bool {
	i := p.idx(pc)
	pred := p.table[i] == 3

	p.Predictions++
	if pred {
		p.PredictedNarrow++
		if actualNarrow {
			p.TruePositives++
		} else {
			p.FalsePositives++
		}
	}
	if actualNarrow {
		p.ActualNarrow++
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
	return pred
}

// ResetStats zeroes the statistics, keeping the learned counters.
func (p *Predictor) ResetStats() {
	p.Predictions, p.PredictedNarrow, p.ActualNarrow = 0, 0, 0
	p.TruePositives, p.FalsePositives = 0, 0
}

// Reset restores the predictor to its just-constructed state, reusing the
// counter table.
func (p *Predictor) Reset() {
	clear(p.table)
	p.ResetStats()
}

// Coverage returns the fraction of actually-narrow results that were
// predicted narrow (the paper reports 95%).
func (p *Predictor) Coverage() float64 {
	if p.ActualNarrow == 0 {
		return 0
	}
	return float64(p.TruePositives) / float64(p.ActualNarrow)
}

// FalseNarrowRate returns the fraction of predicted-narrow results that
// turned out wide (the paper reports 2%).
func (p *Predictor) FalseNarrowRate() float64 {
	if p.PredictedNarrow == 0 {
		return 0
	}
	return float64(p.FalsePositives) / float64(p.PredictedNarrow)
}

// FrequentValueTable tracks the most frequent recent result values (after
// Yang, Zhang & Gupta, "Frequent Value Compression in Data Caches", cited
// by the paper as a further compaction opportunity): a value present in the
// table can be encoded by its 3-bit index and therefore rides L-wires even
// when it does not fit the 10-bit narrow window. Producer- and
// consumer-side tables are assumed to stay in sync (they observe the same
// committed value stream).
type FrequentValueTable struct {
	entries [8]uint64
	counts  [8]uint32
	valid   [8]bool
}

// NewFrequentValueTable returns an empty 8-entry table.
func NewFrequentValueTable() *FrequentValueTable { return &FrequentValueTable{} }

// Reset empties the table.
func (f *FrequentValueTable) Reset() { *f = FrequentValueTable{} }

// Contains reports whether the value is currently encodable.
func (f *FrequentValueTable) Contains(v uint64) bool {
	for i, e := range f.entries {
		if f.valid[i] && e == v {
			return true
		}
	}
	return false
}

// Observe trains the table with a produced value: hits strengthen an entry,
// misses decay all entries and replace the weakest (a saturating-frequency
// scheme that needs no global counting).
func (f *FrequentValueTable) Observe(v uint64) {
	weakest, weakestCount := 0, uint32(1<<31)
	for i, e := range f.entries {
		if f.valid[i] && e == v {
			if f.counts[i] < 1<<24 {
				f.counts[i]++
			}
			return
		}
		if !f.valid[i] {
			weakest, weakestCount = i, 0
			break
		}
		if f.counts[i] < weakestCount {
			weakest, weakestCount = i, f.counts[i]
		}
	}
	// Decay so stale values eventually lose their slot.
	for i := range f.counts {
		if f.counts[i] > 0 {
			f.counts[i]--
		}
	}
	if weakestCount == 0 || f.counts[weakest] == 0 {
		f.entries[weakest] = v
		f.counts[weakest] = 1
		f.valid[weakest] = true
	}
}
