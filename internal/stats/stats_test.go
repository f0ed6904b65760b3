package stats

import (
	"strings"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, v := range []uint64{0, 3, 7, 12, 100} {
		h.Observe(v)
	}
	if h.Count != 5 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[2] != 1 {
		t.Errorf("bucketing wrong: %v", h.Buckets)
	}
	var inBuckets uint64
	for _, b := range h.Buckets {
		inBuckets += b
	}
	if over := h.Count - inBuckets; over != 1 {
		t.Errorf("overflow = %d, want 1", over)
	}
	if h.Sum != 122 {
		t.Errorf("sum = %d, want 122", h.Sum)
	}
}

func TestArithmeticMean(t *testing.T) {
	if am := ArithmeticMean([]float64{1, 2, 3}); am != 2 {
		t.Errorf("AM = %f", am)
	}
	if ArithmeticMean(nil) != 0 {
		t.Error("empty AM should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("b", 12)
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") || !strings.Contains(out, "12") {
		t.Errorf("table render wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestHistogramPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-width histogram accepted")
		}
	}()
	NewHistogram(4, 0)
}

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, v := range []uint64{0, 3, 9, 10, 25, 39, 40, 1000} {
		h.Observe(v)
	}
	cum := h.AppendCumulative(nil)
	if len(cum) != 5 {
		t.Fatalf("want 4 finite buckets + inf, got %d", len(cum))
	}
	wantBounds := []uint64{9, 19, 29, 39}
	wantCounts := []uint64{3, 4, 5, 6}
	for i := 0; i < 4; i++ {
		if cum[i].Inf || cum[i].UpperBound != wantBounds[i] || cum[i].Count != wantCounts[i] {
			t.Errorf("bucket %d = %+v, want le=%d count=%d", i, cum[i], wantBounds[i], wantCounts[i])
		}
	}
	last := cum[4]
	if !last.Inf || last.Count != h.Count || last.Count != 8 {
		t.Errorf("inf bucket = %+v, want count %d", last, h.Count)
	}
	// Cumulative counts must be monotonic — the Prometheus invariant.
	for i := 1; i < len(cum); i++ {
		if cum[i].Count < cum[i-1].Count {
			t.Errorf("counts not monotonic at %d: %d < %d", i, cum[i].Count, cum[i-1].Count)
		}
	}
}
