package narrow

import (
	"testing"
	"testing/quick"

	"hetwire/internal/xrand"
)

func TestIsNarrowBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		bits int
		want bool
	}{
		{0, 10, true},
		{1023, 10, true},
		{1024, 10, false},
		{1 << 40, 10, false},
		{5, 0, false},
		{^uint64(0), 64, true},
		{^uint64(0), 63, false},
	}
	for _, c := range cases {
		if got := IsNarrow(c.v, c.bits); got != c.want {
			t.Errorf("IsNarrow(%d, %d) = %v, want %v", c.v, c.bits, got, c.want)
		}
	}
}

// TestIsNarrowProperty: property — IsNarrow(v, 10) iff v < 1024.
func TestIsNarrowProperty(t *testing.T) {
	f := func(v uint64) bool { return IsNarrow(v, 10) == (v < 1024) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPredictorRequiresSaturation: a PC must produce three narrow results
// before being predicted narrow — the high-confidence policy.
func TestPredictorRequiresSaturation(t *testing.T) {
	p := NewPredictor(8192)
	const pc = 0x1000
	for i := 0; i < 3; i++ {
		if p.Predict(pc) {
			t.Fatalf("predicted narrow after only %d observations", i)
		}
		p.Record(pc, true)
	}
	if !p.Predict(pc) {
		t.Error("not predicted narrow after counter saturation")
	}
	// One wide result de-saturates immediately.
	p.Record(pc, false)
	if p.Predict(pc) {
		t.Error("still predicted narrow after a wide result")
	}
}

// TestStablyNarrowInstructionsReachPaperRates reproduces the Section 4
// claim: with mostly-stable per-PC width behaviour, the predictor finds
// ~95% of narrow results and only ~2% of predicted-narrow values are wide.
func TestStablyNarrowInstructionsReachPaperRates(t *testing.T) {
	p := NewPredictor(8192)
	src := xrand.New(99)
	// 512 static instructions: 40% always narrow, 40% always wide, 20%
	// mostly narrow (95% narrow) — a plausible SPEC-like PC population.
	kind := make([]int, 512)
	for i := range kind {
		switch {
		case i < 205:
			kind[i] = 0 // always narrow
		case i < 410:
			kind[i] = 1 // always wide
		default:
			kind[i] = 2 // 95% narrow
		}
	}
	for i := 0; i < 300000; i++ {
		pcIdx := src.Intn(512)
		pc := uint64(0x40000 + pcIdx*4)
		var isNarrow bool
		switch kind[pcIdx] {
		case 0:
			isNarrow = true
		case 1:
			isNarrow = false
		default:
			isNarrow = src.Bool(0.95)
		}
		p.Record(pc, isNarrow)
	}
	if cov := p.Coverage(); cov < 0.90 {
		t.Errorf("coverage = %.3f, want >= 0.90 (paper: 0.95)", cov)
	}
	if fr := p.FalseNarrowRate(); fr > 0.04 {
		t.Errorf("false-narrow rate = %.3f, want <= 0.04 (paper: 0.02)", fr)
	}
}

// TestPredictorStatsConsistency: property — TP+FP == PredictedNarrow and
// TP <= ActualNarrow for any outcome sequence.
func TestPredictorStatsConsistency(t *testing.T) {
	p := NewPredictor(64)
	f := func(pcRaw uint8, narrow bool) bool {
		p.Record(uint64(pcRaw)*4, narrow)
		return p.TruePositives+p.FalsePositives == p.PredictedNarrow &&
			p.TruePositives <= p.ActualNarrow &&
			p.Predictions >= p.PredictedNarrow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRatesWithNoData(t *testing.T) {
	p := NewPredictor(8)
	if p.Coverage() != 0 || p.FalseNarrowRate() != 0 {
		t.Error("rates must be zero before any data")
	}
}

func TestNewPredictorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two size accepted")
		}
	}()
	NewPredictor(1000)
}

// TestFrequentValueTableLearnsHotValues: repeated values become encodable;
// one-off values do not displace them.
func TestFrequentValueTableLearnsHotValues(t *testing.T) {
	f := NewFrequentValueTable()
	hot := []uint64{0xDEAD0000, 42, 0x10000000}
	for i := 0; i < 200; i++ {
		for _, v := range hot {
			f.Observe(v)
		}
		f.Observe(uint64(0xF000_0000) + uint64(i)) // noise, never repeats
	}
	for _, v := range hot {
		if !f.Contains(v) {
			t.Errorf("hot value %#x not in table", v)
		}
	}
	if f.Contains(0xF000_0005) {
		t.Error("one-off noise value occupies the table")
	}
}

// TestFrequentValueTableAdapts: when the hot set changes, the table follows.
func TestFrequentValueTableAdapts(t *testing.T) {
	f := NewFrequentValueTable()
	for i := 0; i < 100; i++ {
		f.Observe(111)
	}
	if !f.Contains(111) {
		t.Fatal("value not learned")
	}
	// New regime: nine distinct hot values cycle; 111 never recurs. The
	// 8-entry table must eventually drop 111.
	for i := 0; i < 3000; i++ {
		f.Observe(uint64(200 + i%9))
	}
	if f.Contains(111) {
		t.Error("stale value survived a full working-set change")
	}
}
