package hetwire

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetwire/internal/config"
)

// The golden-result determinism corpus: a matrix of (model, topology,
// benchmark, instruction count) scenarios whose ResultHash values are pinned
// under testdata/golden/. TestGoldenCorpus re-simulates every scenario and
// compares; any behavioural drift in the simulator — workload generation,
// pipeline timing, network arbitration, statistics accounting — fails the
// test. This is the guard that lets the hot path be optimized aggressively:
// a perf change is valid only if the corpus hashes stay bit-identical.
//
// Refresh intentionally with:
//
//	go test -run TestGoldenCorpus -update-golden .

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/golden fixtures")

var goldenModels = []config.ModelID{config.ModelI, config.ModelV, config.ModelVIII}

var goldenTopologies = []struct {
	name string
	topo config.Topology
}{
	{"crossbar4", config.Crossbar4},
	{"hierring16", config.HierRing16},
}

// Six representative benchmarks: int-heavy (gzip, gcc, vortex), memory-bound
// (mcf), fp/streaming (swim), and mixed fp (mesa).
var goldenBenchmarks = []string{"gzip", "gcc", "mcf", "swim", "mesa", "vortex"}

var goldenCounts = []uint64{4_000, 16_000}

// goldenFile is the fixture path for one model's scenarios.
func goldenFile(id config.ModelID) string {
	short := strings.TrimPrefix(id.String(), "Model-")
	return filepath.Join("testdata", "golden", fmt.Sprintf("model_%s.json", short))
}

// goldenKey names one scenario inside a fixture file.
func goldenKey(topo string, bench string, n uint64) string {
	return fmt.Sprintf("%s/%s/n=%d", topo, bench, n)
}

// goldenRun executes one corpus scenario.
func goldenRun(t testing.TB, id config.ModelID, topo config.Topology, bench string, n uint64) Result {
	cfg := DefaultConfig().WithModel(id)
	cfg.Topology = topo
	res, err := RunBenchmark(cfg, bench, n)
	if err != nil {
		t.Fatalf("RunBenchmark(%v, %s, %d): %v", id, bench, n, err)
	}
	return res
}

func readGolden(t *testing.T, id config.ModelID) map[string]string {
	raw, err := os.ReadFile(goldenFile(id))
	if err != nil {
		t.Fatalf("golden fixture missing (run with -update-golden to create): %v", err)
	}
	out := make(map[string]string)
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("golden fixture %s corrupt: %v", goldenFile(id), err)
	}
	return out
}

func writeGolden(t *testing.T, id config.ModelID, hashes map[string]string) {
	raw, err := json.MarshalIndent(hashes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile(id)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile(id), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCorpus pins the simulator's observable behaviour. Every scenario
// runs as its own parallel subtest so the corpus finishes quickly.
func TestGoldenCorpus(t *testing.T) {
	if *updateGolden {
		for _, id := range goldenModels {
			hashes := make(map[string]string)
			for _, tp := range goldenTopologies {
				for _, bench := range goldenBenchmarks {
					for _, n := range goldenCounts {
						res := goldenRun(t, id, tp.topo, bench, n)
						hashes[goldenKey(tp.name, bench, n)] = ResultHash(res)
					}
				}
			}
			writeGolden(t, id, hashes)
			t.Logf("wrote %s (%d scenarios)", goldenFile(id), len(hashes))
		}
		return
	}
	for _, id := range goldenModels {
		id := id
		want := readGolden(t, id)
		for _, tp := range goldenTopologies {
			tp := tp
			for _, bench := range goldenBenchmarks {
				bench := bench
				for _, n := range goldenCounts {
					n := n
					name := fmt.Sprintf("%s/%s", id, goldenKey(tp.name, bench, n))
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						key := goldenKey(tp.name, bench, n)
						wantHash, ok := want[key]
						if !ok {
							t.Fatalf("no golden hash for %s (refresh with -update-golden)", key)
						}
						res := goldenRun(t, id, tp.topo, bench, n)
						if got := ResultHash(res); got != wantHash {
							t.Errorf("behavioural drift: ResultHash = %s, golden = %s\n"+
								"If this change is intended, refresh with: go test -run TestGoldenCorpus -update-golden .",
								got, wantHash)
						}
					})
				}
			}
		}
	}
}

// TestGoldenCorpusContextPath re-runs the full corpus through the
// context-aware entry point and compares against the same pinned fixtures:
// the cancellation polling and forward-progress watchdog must be invisible
// to a run that is never cancelled. Together with TestGoldenCorpus this
// proves Run and RunContext are bit-identical across the whole matrix.
func TestGoldenCorpusContextPath(t *testing.T) {
	if *updateGolden {
		t.Skip("updating")
	}
	ctx := context.Background()
	for _, id := range goldenModels {
		id := id
		want := readGolden(t, id)
		for _, tp := range goldenTopologies {
			tp := tp
			for _, bench := range goldenBenchmarks {
				bench := bench
				for _, n := range goldenCounts {
					n := n
					name := fmt.Sprintf("%s/%s", id, goldenKey(tp.name, bench, n))
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := DefaultConfig().WithModel(id)
						cfg.Topology = tp.topo
						res, err := RunBenchmarkContext(ctx, cfg, bench, n)
						if err != nil {
							t.Fatalf("RunBenchmarkContext: %v", err)
						}
						wantHash := want[goldenKey(tp.name, bench, n)]
						if got := ResultHash(res); got != wantHash {
							t.Errorf("ctx path drifted from golden: ResultHash = %s, golden = %s", got, wantHash)
						}
					})
				}
			}
		}
	}
}

// TestGoldenCorpusCoversMatrix guards the corpus shape itself: a fixture
// edit that silently drops scenarios must fail.
func TestGoldenCorpusCoversMatrix(t *testing.T) {
	if *updateGolden {
		t.Skip("updating")
	}
	wantPerModel := len(goldenTopologies) * len(goldenBenchmarks) * len(goldenCounts)
	for _, id := range goldenModels {
		if got := len(readGolden(t, id)); got != wantPerModel {
			t.Errorf("%s: fixture has %d scenarios, want %d", goldenFile(id), got, wantPerModel)
		}
	}
}

// TestResultHashPathIndependence asserts the serving path and the library
// path produce bit-identical results: the same (config, benchmark, n) run
// twice in-process via RunBenchmark and once via RunRequest.Execute must
// yield three equal ResultHash values.
func TestResultHashPathIndependence(t *testing.T) {
	cfg := DefaultConfig().WithModel(ModelV)
	const bench, n = "gcc", uint64(6_000)

	first, err := RunBenchmark(cfg, bench, n)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunBenchmark(cfg, bench, n)
	if err != nil {
		t.Fatal(err)
	}
	req := &RunRequest{Benchmark: bench, Model: "V", N: n}
	resp, err := req.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatal("RunResponse.Stats missing for single run")
	}
	served := Result{Stats: *resp.Stats, Benchmark: resp.Benchmark}

	h1, h2, h3 := ResultHash(first), ResultHash(second), ResultHash(served)
	if h1 != h2 {
		t.Errorf("two in-process runs differ: %s vs %s", h1, h2)
	}
	if h1 != h3 {
		t.Errorf("serving path differs from library path: %s vs %s", h1, h3)
	}
}

// TestResultHashSensitivity: distinct behaviour must produce distinct
// hashes — otherwise the corpus guards nothing.
func TestResultHashSensitivity(t *testing.T) {
	a, err := RunBenchmark(DefaultConfig(), "gzip", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(DefaultConfig().WithModel(ModelV), "gzip", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if ResultHash(a) == ResultHash(b) {
		t.Error("Model I and Model V runs hash equally; ResultHash is not sensitive to behaviour")
	}
	c := a
	c.Stats.Instructions++
	if ResultHash(a) == ResultHash(c) {
		t.Error("mutated stats hash equally; ResultHash is not covering Stats")
	}
}

// The override corpus pins configurations with core overrides, each run in
// the same process right after its base model on the same program, so the
// fixture also guards that the machine pool never serves the base machine
// for its variant. Refresh intentionally with:
//
//	go test -run TestGoldenOverrides -update-golden-overrides .
var updateGoldenOverrides = flag.Bool("update-golden-overrides", false, "rewrite testdata/golden/overrides.json")

var goldenOverrideDocs = []struct{ name, base, doc string }{
	{"I/crossbar4/l2_latency=200", `{"model":"I"}`,
		`{"model":"I","core_overrides":{"l2_latency":200}}`},
	{"V/hierring16/rob=256,memory_latency=600", `{"model":"V","clusters":16}`,
		`{"model":"V","clusters":16,"core_overrides":{"rob":256,"memory_latency":600}}`},
}

func TestGoldenOverrides(t *testing.T) {
	path := filepath.Join("testdata", "golden", "overrides.json")
	got := make(map[string]string)
	for _, o := range goldenOverrideDocs {
		base, err := ConfigFromJSON([]byte(o.base))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ConfigFromJSON([]byte(o.doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, bench := range []string{"gcc", "mcf"} {
			const n = 4_000
			if _, err := RunBenchmark(base, bench, n); err != nil {
				t.Fatal(err)
			}
			res, err := RunBenchmark(cfg, bench, n)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%s/n=%d", o.name, bench, n)] = ResultHash(res)
		}
	}
	if *updateGoldenOverrides {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("override fixture missing (run with -update-golden-overrides to create): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s corrupt: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d scenarios, want %d", path, len(want), len(got))
	}
	for key, h := range got {
		if want[key] != h {
			t.Errorf("%s: ResultHash = %s, golden = %s", key, h, want[key])
		}
	}
}
