// Package stats provides the lightweight histograms and summary helpers
// shared by the simulator and the experiment harness.
package stats

import (
	"fmt"
	"strings"
)

// Histogram buckets integer samples. Buckets are fixed-width starting at 0;
// samples beyond the last bucket are counted only in Count (they fall in
// the +Inf bucket of the cumulative export).
type Histogram struct {
	Width   uint64
	Buckets []uint64
	Count   uint64
	Sum     uint64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, width uint64) *Histogram {
	if n <= 0 || width == 0 {
		panic("stats: histogram needs positive bucket count and width")
	}
	return &Histogram{Width: width, Buckets: make([]uint64, n)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if idx := v / h.Width; idx < uint64(len(h.Buckets)) {
		h.Buckets[idx]++
	}
}

// CumBucket is one cumulative histogram bucket in export form: Count is the
// number of samples <= UpperBound. The final bucket has Inf true (no upper
// bound) and carries the total sample count — the shape Prometheus's
// histogram text format expects for its "le" label series.
type CumBucket struct {
	UpperBound uint64
	Inf        bool
	Count      uint64
}

// AppendCumulative appends the histogram's cumulative buckets to dst and
// returns the extended slice, so periodic exporters (metrics scrapes) can
// reuse one buffer instead of allocating per call. Bucket i covers samples
// < (i+1)*Width, i.e. its upper bound is inclusive at (i+1)*Width-1; the
// trailing +Inf bucket absorbs the overflow samples. Together with Sum and
// Count this is everything a Prometheus histogram exposition needs.
func (h *Histogram) AppendCumulative(dst []CumBucket) []CumBucket {
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		dst = append(dst, CumBucket{UpperBound: uint64(i+1)*h.Width - 1, Count: cum})
	}
	return append(dst, CumBucket{Inf: true, Count: h.Count})
}

// ArithmeticMean averages a slice of float64 values. The paper reports the
// arithmetic mean of IPCs, which "represents a workload where every program
// executes for an equal number of cycles" [John 2004].
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table formats aligned columns for terminal reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given header columns.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are printed with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with space-padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
