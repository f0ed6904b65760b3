package hetwire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hetwire/internal/trace"
	"hetwire/internal/workload"
)

// goldenBatchRequest is the whole golden corpus as one batch: the sweep axes
// reproduce exactly the 3 models x 6 benchmarks x 2 topologies x 2 counts =
// 72 scenarios TestGoldenCorpus pins.
func goldenBatchRequest(parallelism int) *BatchRequest {
	return &BatchRequest{
		Sweep: &BatchSweep{
			Models:     []string{"I", "V", "VIII"},
			Benchmarks: goldenBenchmarks,
			Clusters:   []int{4, 16},
			Ns:         goldenCounts,
		},
		Parallelism: parallelism,
	}
}

// TestGoldenCorpusBatchPath runs the full 72-scenario golden corpus through
// the batch engine at parallelism 1 and at full CPU-token capacity, and
// asserts every scenario's ResultHash is bit-identical to the sequential
// fixtures — the determinism gate for sweep-level parallelism plus the
// workload memo cache.
func TestGoldenCorpusBatchPath(t *testing.T) {
	if *updateGolden {
		t.Skip("updating")
	}
	want := make(map[string]string, 72)
	for _, id := range goldenModels {
		short := strings.TrimPrefix(id.String(), "Model-")
		for k, v := range readGolden(t, id) {
			want[short+"/"+k] = v
		}
	}
	topoName := map[int]string{4: "crossbar4", 16: "hierring16"}

	for _, par := range []int{1, 0} { // sequential, then GOMAXPROCS workers
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			resp, err := goldenBatchRequest(par).Execute()
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Scenarios) != 72 {
				t.Fatalf("batch expanded to %d scenarios, want 72", len(resp.Scenarios))
			}
			if resp.Failed != 0 || resp.Completed != 72 {
				t.Fatalf("completed=%d failed=%d, want 72/0", resp.Completed, resp.Failed)
			}
			for _, sc := range resp.Scenarios {
				req := sc.Request
				key := fmt.Sprintf("%s/%s", req.Model, goldenKey(topoName[req.Clusters], req.Benchmark, req.N))
				wantHash, ok := want[key]
				if !ok {
					t.Fatalf("scenario %d (%s) has no golden fixture", sc.Index, key)
				}
				if sc.Response == nil || sc.Response.Stats == nil {
					t.Fatalf("scenario %d (%s): missing response stats", sc.Index, key)
				}
				got := ResultHash(Result{Stats: *sc.Response.Stats, Benchmark: sc.Response.Benchmark})
				if got != wantHash {
					t.Errorf("%s: batch path drifted from golden: ResultHash = %s, want %s", key, got, wantHash)
				}
			}
		})
	}
}

// TestWorkloadMemoCachedRunBitIdentical closes the memo-cache determinism
// loop at the simulator level: a run fed by a cold (uncached) generator
// build and runs fed by memoized builds hash identically.
func TestWorkloadMemoCachedRunBitIdentical(t *testing.T) {
	cfg := DefaultConfig().WithModel(ModelV)
	prof, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	const n = 8_000

	run := func(gen trace.Stream) string {
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ResultHash(sim.Run(gen, n))
	}
	cold := run(workload.NewGeneratorUncached(prof))
	warm1 := run(workload.NewGenerator(prof)) // miss or hit, depending on test order
	warm2 := run(workload.NewGenerator(prof)) // definitely a memo hit
	if warm1 != cold || warm2 != cold {
		t.Errorf("memoized builds drift from cold build: cold=%s warm1=%s warm2=%s", cold, warm1, warm2)
	}
}

// TestBatchRequestValidateReasons: every rejection carries its
// machine-readable reason code.
func TestBatchRequestValidateReasons(t *testing.T) {
	cases := []struct {
		name   string
		req    BatchRequest
		reason string
	}{
		{"empty", BatchRequest{}, ReasonBadRequest},
		{"negative parallelism", BatchRequest{
			Scenarios:   []RunRequest{{Benchmark: "gcc"}},
			Parallelism: -1,
		}, ReasonBadRequest},
		{"sweep missing models", BatchRequest{
			Sweep: &BatchSweep{Benchmarks: []string{"gcc"}},
		}, ReasonBadRequest},
		{"too large", BatchRequest{
			Sweep: &BatchSweep{
				Models:     []string{"I", "V", "VIII", "X"},
				Benchmarks: []string{"gcc", "mcf", "swim", "gzip"},
				Ns:         make([]uint64, 100), // 4*4*100 = 1600 > MaxSweepPoints
			},
		}, ReasonBatchTooLarge},
		{"bad scenario keeps its code", BatchRequest{
			Scenarios: []RunRequest{{Benchmark: "gcc"}, {Benchmark: "no-such-benchmark"}},
		}, ReasonUnknownBenchmark},
		{"bad clusters", BatchRequest{
			Sweep: &BatchSweep{Models: []string{"I"}, Benchmarks: []string{"gcc"}, Clusters: []int{5}},
		}, ReasonBadConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid batch")
			}
			if got := ReasonCode(err); got != tc.reason {
				t.Errorf("reason = %s, want %s (err: %v)", got, tc.reason, err)
			}
		})
	}
	// The "too large" case must fill Ns with valid budgets for the message to
	// blame size, not the zero-N scenarios; zero N defaults, so it's fine.
	ok := BatchRequest{Scenarios: []RunRequest{{Benchmark: "gcc", N: 2_000}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
}

// TestBatchScenarioIndexInError: a failing scenario's index is in the
// validation message, so the offender is locatable in a large sweep.
func TestBatchScenarioIndexInError(t *testing.T) {
	req := BatchRequest{Scenarios: []RunRequest{
		{Benchmark: "gcc"}, {Benchmark: "mcf"}, {Benchmark: "bogus"},
	}}
	err := req.Validate()
	if err == nil || !strings.Contains(err.Error(), "scenario 2") {
		t.Errorf("error does not locate the bad scenario: %v", err)
	}
}

// TestBatchExecuteCancellation: cancelling the context stops the batch,
// marks unfinished scenarios cancelled, and returns the context error.
func TestBatchExecuteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts: nothing may run
	req := BatchRequest{
		Sweep:       &BatchSweep{Models: []string{"I"}, Benchmarks: []string{"gcc", "mcf"}, Ns: []uint64{4_000}},
		Parallelism: 1,
	}
	resp, err := req.ExecuteContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if resp == nil || resp.Completed != 0 || resp.Failed != len(resp.Scenarios) {
		t.Fatalf("cancelled batch response = %+v", resp)
	}
	for _, sc := range resp.Scenarios {
		if sc.Reason != "cancelled" {
			t.Errorf("scenario %d reason = %q, want cancelled", sc.Index, sc.Reason)
		}
	}
}

// TestBatchExecuteDeadline: a deadline mid-batch yields partial completion
// without corrupting completed slots.
func TestBatchExecuteDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Wait for the cancel goroutine to actually run, not just the deadline
	// to pass — on a loaded host ctx.Err() can lag the wall clock.
	<-ctx.Done()
	req := BatchRequest{
		Sweep:       &BatchSweep{Models: []string{"I"}, Benchmarks: []string{"gcc"}, Ns: []uint64{4_000}},
		Parallelism: 1,
	}
	resp, err := req.ExecuteContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	for _, sc := range resp.Scenarios {
		if sc.Response != nil {
			t.Errorf("scenario %d has a response after pre-expired deadline", sc.Index)
		}
	}
}

// TestBatchExpandOrder pins the canonical expansion order: explicit
// scenarios first, then benchmark-major sweep axes.
func TestBatchExpandOrder(t *testing.T) {
	req := BatchRequest{
		Scenarios: []RunRequest{{Benchmark: "art", N: 1}},
		Sweep: &BatchSweep{
			Models:     []string{"I", "V"},
			Benchmarks: []string{"gcc", "mcf"},
			Ns:         []uint64{10, 20},
		},
	}
	reqs, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range reqs {
		got = append(got, fmt.Sprintf("%s/%s/%d", r.Benchmark, r.Model, r.N))
	}
	want := []string{
		"art//1",
		"gcc/I/10", "gcc/I/20", "gcc/V/10", "gcc/V/20",
		"mcf/I/10", "mcf/I/20", "mcf/V/10", "mcf/V/20",
	}
	if len(got) != len(want) {
		t.Fatalf("expanded to %d scenarios, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("expansion[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}
