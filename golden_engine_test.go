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

	"hetwire/internal/batch"
	"hetwire/internal/config"
)

// The engine corpora pin every program on every interconnect model, and
// multiprogrammed runs on a shared fabric, so a change to the timing engine
// (calendar storage, cache resets, stream replay) is valid only if all of
// them keep their ResultHash. The fixtures are named so that perfbench's
// model_*.json glob never matches them. Refresh intentionally with:
//
//	go test -run TestGoldenAllModels -update-golden-all-models .
//	go test -run TestGoldenMultiprogram -update-golden-multiprogram .
//	go test -run TestGoldenLong -golden-long -update-golden-long .
var (
	updateGoldenAllModels    = flag.Bool("update-golden-all-models", false, "rewrite testdata/golden/all_models.json")
	updateGoldenMultiprogram = flag.Bool("update-golden-multiprogram", false, "rewrite testdata/golden/multiprogram.json")
	goldenLong               = flag.Bool("golden-long", false, "check testdata/golden/long.json (every program and model at n=100k)")
	updateGoldenLong         = flag.Bool("update-golden-long", false, "rewrite testdata/golden/long.json (needs -golden-long)")
)

var allModelIDs = []config.ModelID{
	ModelI, ModelII, ModelIII, ModelIV, ModelV,
	ModelVI, ModelVII, ModelVIII, ModelIX, ModelX,
}

// modelShort is the Roman numeral of a model ("VII").
func modelShort(id config.ModelID) string { return strings.TrimPrefix(id.String(), "Model-") }

// engineScenario is one single-program run of an engine corpus.
type engineScenario struct {
	key  string
	cfg  Config
	prog string
	n    uint64
}

// engineScenarios lists every program (benchmarks, then kernels) on every
// model and both topologies at n instructions.
func engineScenarios(n uint64) []engineScenario {
	progs := append(Benchmarks(), Kernels()...)
	var out []engineScenario
	for _, id := range allModelIDs {
		for _, tp := range goldenTopologies {
			cfg := DefaultConfig().WithModel(id)
			cfg.Topology = tp.topo
			for _, prog := range progs {
				out = append(out, engineScenario{
					key: fmt.Sprintf("%s/%s/%s/n=%d", modelShort(id), tp.name, prog, n),
					cfg: cfg, prog: prog, n: n,
				})
			}
		}
	}
	return out
}

// runEngineScenarios simulates every scenario on a bounded worker pool and
// returns key -> ResultHash.
func runEngineScenarios(t *testing.T, scs []engineScenario) map[string]string {
	t.Helper()
	hashes := make([]string, len(scs))
	errs := batch.Run(context.Background(), len(scs), 0, func(ctx context.Context, i int) error {
		res, err := runAnyContext(ctx, scs[i].cfg, scs[i].prog, scs[i].n)
		if err != nil {
			return err
		}
		hashes[i] = ResultHash(res)
		return nil
	})
	out := make(map[string]string, len(scs))
	for i, sc := range scs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", sc.key, errs[i])
		}
		out[sc.key] = hashes[i]
	}
	return out
}

// checkGoldenFile compares got against the fixture at path, or rewrites the
// fixture when update is set.
func checkGoldenFile(t *testing.T, path string, got map[string]string, update bool, flagName string) {
	t.Helper()
	if update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("fixture missing (run with -%s to create): %v", flagName, err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s corrupt: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d scenarios, want %d", path, len(want), len(got))
	}
	drift := 0
	for key, h := range got {
		if want[key] != h {
			drift++
			if drift <= 20 {
				t.Errorf("%s: ResultHash = %s, golden = %s", key, h, want[key])
			}
		}
	}
	if drift > 0 {
		t.Errorf("%d of %d scenarios drifted from %s (refresh intentionally with -%s)", drift, len(got), path, flagName)
	}
}

// TestGoldenAllModels pins all 28 programs on all ten models and both
// topologies at n=4,000: 560 scenarios.
func TestGoldenAllModels(t *testing.T) {
	got := runEngineScenarios(t, engineScenarios(4_000))
	if len(got) != 560 {
		t.Fatalf("corpus has %d scenarios, want 560", len(got))
	}
	checkGoldenFile(t, filepath.Join("testdata", "golden", "all_models.json"), got,
		*updateGoldenAllModels, "update-golden-all-models")
}

// TestGoldenLong pins the same 560 scenarios at n=100,000, where calendar
// rings grow the most. It runs only under -golden-long (about 30 s of CPU on
// a 2-CPU VM).
func TestGoldenLong(t *testing.T) {
	if !*goldenLong {
		t.Skip("long corpus runs only with -golden-long")
	}
	got := runEngineScenarios(t, engineScenarios(100_000))
	checkGoldenFile(t, filepath.Join("testdata", "golden", "long.json"), got,
		*updateGoldenLong, "update-golden-long")
}

// TestGoldenAtBound pins runs at Validate's limits, where calendar rings
// grow the most: pchase on model VII at n=20,000, with the L1D latency at
// the access-span bound on the 4-cluster crossbar, and with ROB 8192, the
// memory latency at the bound and 255-wide fetch, dispatch and commit on
// the 16-cluster ring. Their rings reach 16,384 cells, a quarter of
// sched.MaxCells. The hashes are the engine's from before calendars grew
// on demand, run with a 131,072-cycle ring.
func TestGoldenAtBound(t *testing.T) {
	xbar := DefaultConfig().WithModel(ModelVII)
	xbar.Core.L1DLatency = 1712
	ring := DefaultConfig().WithModel(ModelVII)
	ring.Topology = config.HierRing16
	ring.Core.ROBSize = config.MaxROBSize
	ring.Core.MemLatency = 1982
	ring.Core.FetchWidth, ring.Core.DispatchWidth, ring.Core.CommitWidth = 255, 255, 255
	for _, tc := range []struct {
		name string
		cfg  Config
		past func(*Config) // one cycle past the bound
		want string
	}{
		{"crossbar4/l1d=1712", xbar, func(c *Config) { c.Core.L1DLatency++ },
			"8cb67ae01e5dcaf1ef8bce3b29e2bd039dc595901ee0c836b1cf0e2b03a6b9d8"},
		{"hierring16/rob=8192/mem=1982/widths=255", ring, func(c *Config) { c.Core.MemLatency++ },
			"a0ebc0c2df7951d1aa36765ff760ee6644b3dfb2bfccc1d4b96c8b87aba78df2"},
	} {
		past := tc.cfg
		tc.past(&past)
		if err := past.Validate(); err == nil {
			t.Errorf("%s: one cycle past it still validates; the scenario is no longer at the bound", tc.name)
		}
		res, err := runAnyContext(context.Background(), tc.cfg, "pchase", 20_000)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ResultHash(res); got != tc.want {
			t.Errorf("%s: ResultHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// multiprogramScenarios are the pinned shared-fabric runs: thread counts per
// topology, with programs taken in Benchmarks() order.
var multiprogramScenarios = []struct {
	topo    string
	t       config.Topology
	threads []int
}{
	{"crossbar4", config.Crossbar4, []int{2, 4}},
	{"hierring16", config.HierRing16, []int{4, 16}},
}

// TestGoldenMultiprogram pins per-thread hashes of multiprogrammed runs on
// models I, VII and X at n=4,000.
func TestGoldenMultiprogram(t *testing.T) {
	const n = 4_000
	got := make(map[string]string)
	for _, id := range []config.ModelID{ModelI, ModelVII, ModelX} {
		for _, sc := range multiprogramScenarios {
			for _, k := range sc.threads {
				cfg := DefaultConfig().WithModel(id)
				cfg.Topology = sc.t
				progs := Benchmarks()[:k]
				res, err := RunMultiprogrammed(cfg, progs, n)
				if err != nil {
					t.Fatalf("%v %s %d threads: %v", id, sc.topo, k, err)
				}
				for i, r := range res {
					key := fmt.Sprintf("%s/%s/threads=%d/%d-%s/n=%d", modelShort(id), sc.topo, k, i, r.Benchmark, n)
					got[key] = ResultHash(Result{Benchmark: r.Benchmark, Stats: r.Stats})
				}
			}
		}
	}
	if len(got) != 78 {
		t.Fatalf("corpus has %d thread results, want 78", len(got))
	}
	checkGoldenFile(t, filepath.Join("testdata", "golden", "multiprogram.json"), got,
		*updateGoldenMultiprogram, "update-golden-multiprogram")
}
