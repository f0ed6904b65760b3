package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// generated returns every input a seed generates, serialised.
func generated(t *testing.T, seed uint64) []byte {
	t.Helper()
	golden, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := genSweep(seed, golden, 2)
	if err != nil {
		t.Fatal(err)
	}
	var draws [][]hitDraw
	for c := 0; c < 2; c++ {
		s := newHitStream(seed, c)
		var d []hitDraw
		for i := 0; i < 2000; i++ {
			d = append(d, s.next())
		}
		draws = append(draws, d)
	}
	raw, err := json.Marshal(struct {
		Sweep *sweepInput
		Set   any
		Draws [][]hitDraw
		Mix   []mixEvent
	}{sw, genHitSet(seed), draws, genMix(seed, 20*time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b := generated(t, 7), generated(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, generated(t, 8)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestSweepBalancedAndGolden(t *testing.T) {
	golden, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	in, err := genSweep(3, golden, 2)
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]int{}
	configs := map[string]int{}
	for _, sc := range in.Batch.Scenarios[:len(in.Batch.Scenarios)-sweepGolden] {
		progs[sc.Benchmark]++
		configs[fmt.Sprintf("%s/%d", sc.Model, sc.Clusters)]++
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(progs) != len(programs()) || len(configs) != len(models)*len(clusterCounts) {
		t.Fatalf("batch covers %d programs and %d configurations", len(progs), len(configs))
	}
	for p, n := range progs {
		if n != sweepProgramRepeats {
			t.Errorf("program %s appears %d times, want %d", p, n, sweepProgramRepeats)
		}
	}
	if len(in.Golden) != sweepGolden {
		t.Fatalf("%d golden scenarios, want %d", len(in.Golden), sweepGolden)
	}
}

func TestMixScheduleDistinctBudgets(t *testing.T) {
	d := 20 * time.Second
	evs := genMix(11, d)
	seen := map[uint64]bool{}
	var inter, bulk int
	for i, ev := range evs {
		if ev.Due < 0 || ev.Due >= d || (i > 0 && ev.Due < evs[i-1].Due) {
			t.Fatalf("event %d due at %v: outside the window or out of order", i, ev.Due)
		}
		reqs := []any{}
		switch {
		case ev.Run != nil:
			inter++
			reqs = append(reqs, ev.Run)
		case ev.Batch != nil:
			bulk++
			for j := range ev.Batch.Scenarios {
				reqs = append(reqs, &ev.Batch.Scenarios[j])
			}
		}
		for _, r := range reqs {
			n := r.(interface{ Instructions() uint64 }).Instructions()
			if seen[n] {
				t.Fatalf("budget %d used twice: a run would hit the cache", n)
			}
			seen[n] = true
		}
	}
	if inter != int(mixInteractiveRate*d.Seconds()) || bulk != int(mixBulkRate*d.Seconds()) {
		t.Fatalf("%d interactive and %d bulk arrivals", inter, bulk)
	}
}

// benchmarkJSON is the declaration file at the repository root.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
	Workloads []struct{ Name, Why string } `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPrintedMetricsDeclared renders both reports and checks every printed
// metric line against BENCHMARK.json: name syntax, declaration, unit and
// direction.
func TestPrintedMetricsDeclared(t *testing.T) {
	b := readBenchmarkJSON(t)
	type decl struct{ unit, better string }
	declared := map[string]decl{}
	for _, m := range b.EndToEnd {
		declared[m.Name] = decl{m.Unit, m.Better}
	}
	for _, m := range b.PerLayer {
		declared[m.Name] = decl{m.Unit, m.Better}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		vals := report{}
		for _, d := range defs {
			vals[d.Name] = 1
		}
		var buf bytes.Buffer
		if err := emit(&buf, defs, vals, true, 1, 0); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != len(defs)+1 {
			t.Fatalf("emit printed %d lines for %d metrics", len(lines), len(defs))
		}
		for i, line := range lines[:len(defs)] {
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != "metric" {
				t.Fatalf("malformed metric line %q", line)
			}
			name, unit := f[1], f[3]
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
			}
			dc, ok := declared[name]
			if !ok {
				t.Errorf("metric %s is printed but not declared in BENCHMARK.json", name)
				continue
			}
			if dc.unit != unit || dc.better != defs[i].Better {
				t.Errorf("metric %s prints unit %q (%q), BENCHMARK.json says %q (%q)", name, unit, defs[i].Better, dc.unit, dc.better)
			}
		}
		var out struct{ Metrics map[string]any }
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil || len(out.Metrics) != len(defs) {
			t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the benchmark prints %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
}

// TestEmitRefusesEmptyEndToEnd checks that an end-to-end metric with no
// samples fails the run instead of printing 0, which would read as the best
// result, while a per-layer one prints 0.
func TestEmitRefusesEmptyEndToEnd(t *testing.T) {
	vals := report{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	vals["latency_p50_ms"] = median(nil)
	if err := emit(io.Discard, endToEnd, vals, true, 1, 0); err == nil {
		t.Error("emit accepted a NaN end-to-end metric")
	}
	layer := report{"async_p50_ms": median(nil)}
	if err := emit(io.Discard, perLayer, layer, true, 1, 0); err != nil {
		t.Errorf("emit refused a per-layer metric with no samples: %v", err)
	}
}

// TestLayerMapCoversEveryPackage walks the module and checks that the pprof
// layer map assigns every hetwire package to a layer.
func TestLayerMapCoversEveryPackage(t *testing.T) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", ".bench_build", "perfbench":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel("..", filepath.Dir(path))
			if err != nil {
				return err
			}
			pkg := "hetwire"
			if rel != "." {
				pkg += "/" + filepath.ToSlash(rel)
			}
			pkgs[pkg] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages; is the module root at ..?", len(pkgs))
	}
	for pkg := range pkgs {
		if packageLayer(pkg) == "" {
			t.Errorf("package %s has no layer in the pprof layer map", pkg)
		}
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.memclrNoHeapPointers", "memclr.s"}, {"hetwire/internal/core.(*Processor).Reset", "processor.go"}}, "cpu.core.reset"},
		{[]frame{{"hetwire/internal/core.(*Processor).steer", "steer.go"}}, "cpu.core.steer"},
		{[]frame{{"hetwire/internal/sched.(*Wheel).Commit", "wheel.go"}}, "cpu.sched.wheel"},
		{[]frame{{"hetwire/internal/sched.(*Calendar).Reserve", "sched.go"}}, "cpu.sched.calendar"},
		{[]frame{{"runtime.mallocgc", "malloc.go"}, {"encoding/json.Marshal", "encode.go"}, {"hetwire/internal/server.writeJSON", "server.go"}}, "cpu.stdlib.json"},
		{[]frame{{"hetwire/internal/server.(*fairQueue).push", "sched.go"}}, "cpu.tenant"},
		{[]frame{{"runtime.scanobject", "mgcmark.go"}, {"runtime.gcDrain", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}}, "cpu.runtime.gc"},
		{[]frame{{"runtime.futex", "os_linux.go"}, {"runtime.findRunnable", "proc.go"}, {"runtime.schedule", "proc.go"}}, "cpu.runtime.other"},
		{[]frame{{"syscall.Syscall", "syscall.go"}, {"internal/poll.(*FD).Read", "fd.go"}, {"net.(*conn).Read", "net.go"}}, "cpu.stdlib.http"},
		{[]frame{{"crypto/sha256.block", "sha.go"}, {"main.responseHash", "sweep.go"}}, "cpu.harness"},
		{[]frame{{"sort.Sort", "sort.go"}}, "cpu.other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseRaw(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          2   20000000: 1 2
          1   10000000: 3 2
Locations
     1: 0x50c57e M=1 hetwire/internal/core.(*lsqState).disambiguateFull /x/internal/core/lsq.go:164:0 s=157
     2: 0x50b85e M=1 hetwire/internal/core.(*Processor).step /x/internal/core/pipeline.go:111:0 s=24
     3: 0x58bc74 M=1 hetwire/internal/xrand.(*Source).Bool /x/internal/xrand/xrand.go:95:0 s=94
             hetwire/internal/workload.(*Generator).pickSource /x/internal/workload/workload.go:470:0 s=466
Mappings
`
	shares, total, err := parseRaw([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || shares["cpu.core.lsq"] != 2 || shares["cpu.workload"] != 1 {
		t.Fatalf("shares %v total %v", shares, total)
	}
}
