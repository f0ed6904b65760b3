package hetwire

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The drivers golden pins what the experiment drivers print, at a scale
// small enough for tier-1. Refresh intentionally with:
//
//	go test -run TestExperimentsGolden -update-golden-experiments .
var updateGoldenExperiments = flag.Bool("update-golden-experiments", false, "rewrite testdata/golden/experiments.txt")

// TestExperimentsGolden renders every driver's tables and CSVs, and each
// result's fields at full precision, and compares the text byte for byte
// with the committed fixture. It pins what no ResultHash covers: the Table
// 3/4 energy and ED² columns, the design-space ranking, and Extensions'
// transmission-line ED².
func TestExperimentsGolden(t *testing.T) {
	opt := Options{Instructions: 4_000, Benchmarks: []string{"gzip", "mcf", "swim"}}
	var b strings.Builder
	put := func(title string, vs ...any) {
		fmt.Fprintf(&b, "=== %s\n", title)
		for _, v := range vs {
			fmt.Fprintf(&b, "%+v\n", v)
		}
	}
	// The result types with a String method print through these, so %+v
	// shows their fields instead.
	type figure3Fields Figure3Result
	type tableFields TableResult

	fig3 := Figure3(opt)
	put("Figure3", fig3, fig3.CSV(), fig3.Bars(40), figure3Fields(fig3))
	for _, tab := range []TableResult{Table3(opt), Table4(opt)} {
		put("Table "+tab.Topology.String(), tab, tab.CSV(), tableFields(tab))
	}
	put("LatencySensitivity", LatencySensitivity(opt))
	put("ScalingStudies", ScalingStudies(opt))
	put("Claims", Claims(opt))
	put("Extensions", Extensions(opt))
	put("SweepLatencyScale", SweepLatencyScale([]int{1, 2}, opt))
	put("ExploreArea", ExploreArea(1.5, 0.10, opt))
	var findings []any
	for _, f := range VerifyReproduction(opt) {
		findings = append(findings, f)
	}
	put("VerifyReproduction", findings...)

	path := filepath.Join("testdata", "golden", "experiments.txt")
	got := b.String()
	if *updateGoldenExperiments {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fixture missing (run with -update-golden-experiments to create): %v", err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("driver output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("driver output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
