package hetwire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"hetwire/internal/config"
	"hetwire/internal/core"
	"hetwire/internal/obs"
	"hetwire/internal/workload"
)

// TestProbeGoldenIdentical is the read-only contract's enforcement: a probed
// run must hash bit-identically to the pinned golden fixture for the same
// scenario — sampling telemetry observes the machine, it never perturbs it.
func TestProbeGoldenIdentical(t *testing.T) {
	raw, err := os.ReadFile(goldenFile(config.ModelV))
	if err != nil {
		t.Fatalf("golden fixture missing: %v", err)
	}
	fixture := make(map[string]string)
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	key := goldenKey("crossbar4", "gcc", 16_000)
	wantHash, ok := fixture[key]
	if !ok {
		t.Fatalf("fixture has no %s", key)
	}

	req := &RunRequest{Benchmark: "gcc", Model: "V", Clusters: 4, N: 16_000}
	var buf bytes.Buffer
	probed, err := req.ExecuteProbed(context.Background(), &buf)
	if err != nil {
		t.Fatalf("ExecuteProbed: %v", err)
	}
	got := ResultHash(Result{Stats: *probed.Stats, Benchmark: probed.Benchmark})
	if got != wantHash {
		t.Errorf("probed run drifted from golden: ResultHash = %s, golden = %s\n"+
			"the probe perturbed the simulation — it must be strictly read-only", got, wantHash)
	}

	// And the full response must equal the unprobed serving path's.
	plain, err := req.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, probed) {
		t.Error("probed RunResponse differs from unprobed RunResponse")
	}
}

// TestExecuteProbedTrace checks the trace a probed execution streams: it
// parses under the versioned schema, samples arrive at the documented
// cadence, cumulative counters are monotone, and the summary carries all
// four wire-class rows.
func TestExecuteProbedTrace(t *testing.T) {
	req := &RunRequest{Benchmark: "gcc", Model: "V", Clusters: 4, N: 40_000}
	var buf bytes.Buffer
	resp, err := req.ExecuteProbed(context.Background(), &buf)
	if err != nil {
		t.Fatalf("ExecuteProbed: %v", err)
	}
	hdr, samples, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if hdr.Benchmark != "gcc" || hdr.N != 40_000 || hdr.Interval != ProbeInterval {
		t.Errorf("header = %+v", hdr)
	}
	if hdr.ConfigHash == "" {
		t.Error("header missing config hash")
	}
	if len(hdr.Inventory) == 0 {
		t.Error("header missing link inventory")
	}
	// 40_000 instructions at an 8192 cadence: 4 interval samples + 1 final.
	wantSamples := int(req.N/ProbeInterval) + 1
	if len(samples) != wantSamples {
		t.Errorf("got %d samples, want %d", len(samples), wantSamples)
	}
	last := samples[len(samples)-1]
	if !last.Final {
		t.Error("last sample not marked final")
	}
	if last.Committed != resp.Instructions || last.Cycle != resp.Cycles {
		t.Errorf("final sample committed/cycle = %d/%d, response = %d/%d",
			last.Committed, last.Cycle, resp.Instructions, resp.Cycles)
	}
	var prev obs.Sample
	for i, s := range samples {
		if s.Committed < prev.Committed || s.Cycle < prev.Cycle {
			t.Errorf("sample %d not monotone: %d/%d after %d/%d", i, s.Committed, s.Cycle, prev.Committed, prev.Cycle)
		}
		if s.Classes.B.BitHops < prev.Classes.B.BitHops {
			t.Errorf("sample %d: cumulative B bit-hops decreased", i)
		}
		if s.Energy.Dynamic < prev.Energy.Dynamic {
			t.Errorf("sample %d: cumulative dynamic energy decreased", i)
		}
		prev = s
	}

	sum, err := obs.Summarize(hdr, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Classes) != 4 {
		t.Fatalf("summary has %d class rows, want 4 (W/PW/B/L)", len(sum.Classes))
	}
	// Model V instantiates B, PW, and L planes; a gcc run must move traffic
	// on B at minimum and report nonzero utilization for it.
	var bRow obs.ClassRow
	for _, r := range sum.Classes {
		if r.Class == "B" {
			bRow = r
		}
	}
	if bRow.Transfers == 0 || bRow.Utilization == 0 {
		t.Errorf("B plane row empty: %+v", bRow)
	}
	if sum.Energy.Dynamic <= 0 || sum.Energy.Leakage <= 0 {
		t.Errorf("summary energy = %+v", sum.Energy)
	}
}

// TestExecuteProbedRejectsMultiprogrammed pins the documented limitation
// with its machine-readable reason.
func TestExecuteProbedRejectsMultiprogrammed(t *testing.T) {
	req := &RunRequest{Benchmarks: []string{"gzip", "gcc"}, N: 4_000}
	_, err := req.ExecuteProbed(context.Background(), io.Discard)
	if err == nil {
		t.Fatal("probed multiprogrammed run was accepted")
	}
	if got := ReasonCode(err); got != ReasonProbeUnsupported {
		t.Errorf("reason = %q, want %q", got, ReasonProbeUnsupported)
	}
}

// TestValidateReasonCodes pins the machine-readable code each admission
// failure class carries.
func TestValidateReasonCodes(t *testing.T) {
	cases := []struct {
		name string
		req  RunRequest
		want string
	}{
		{"neither", RunRequest{}, ReasonBadRequest},
		{"both", RunRequest{Benchmark: "gcc", Benchmarks: []string{"gzip"}}, ReasonBadRequest},
		{"budget", RunRequest{Benchmark: "gcc", N: MaxInstructions + 1}, ReasonBudgetExceeded},
		{"too many", RunRequest{Benchmarks: make([]string, MaxBenchmarks+1)}, ReasonTooManyPrograms},
		{"unknown", RunRequest{Benchmark: "no-such-benchmark"}, ReasonUnknownBenchmark},
		{"bad model", RunRequest{Benchmark: "gcc", Model: "XIV"}, ReasonBadConfig},
		{"bad clusters", RunRequest{Benchmark: "gcc", Clusters: 7}, ReasonBadConfig},
		{"topology", RunRequest{Benchmarks: []string{"gzip", "gcc", "mcf", "swim", "mesa"}, Clusters: 4}, ReasonTopologyMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid request")
			}
			if got := ReasonCode(err); got != tc.want {
				t.Errorf("ReasonCode = %q, want %q (err: %v)", got, tc.want, err)
			}
		})
	}
	if err := (&RunRequest{Benchmark: "gcc"}).Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	// Arbitrary errors fold to the bounded fallback code.
	if got := ReasonCode(io.ErrUnexpectedEOF); got != ReasonInvalidRequest {
		t.Errorf("fallback reason = %q, want %q", got, ReasonInvalidRequest)
	}
	// A run that could not stay exact has its own code, wrapped or not.
	calErr := fmt.Errorf("scenario 3: %w", &core.CalendarError{Committed: 8192})
	if got := ReasonCode(calErr); got != ReasonCalendarFault {
		t.Errorf("calendar fault reason = %q, want %q", got, ReasonCalendarFault)
	}
}

// probeBenchRun is the shared scenario for the probe-overhead pair: the
// golden corpus's heaviest single-machine case.
func probeBenchRun(b *testing.B, probe Probe) {
	b.Helper()
	cfg := DefaultConfig().WithModel(ModelV)
	prof, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	const n = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if probe != nil {
			sim.SetProbe(probe)
		}
		if _, err := sim.RunContext(context.Background(), workload.NewGenerator(prof), n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*uint64(b.N))/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkProbeOff is the no-probe baseline; BenchmarkProbeOn measures the
// full recording path (sampling + JSON encode to an in-memory sink).
// cmd/benchreport compares the pair as the probe-overhead row.
func BenchmarkProbeOff(b *testing.B) {
	probeBenchRun(b, nil)
}

func BenchmarkProbeOn(b *testing.B) {
	rec := obs.NewRecorder(io.Discard, obs.Header{Benchmark: "gcc", Model: "Model-V"})
	probeBenchRun(b, rec)
}

// sealedWriter records what is written to it and counts writes that arrive
// after it is sealed.
type sealedWriter struct {
	bytes.Buffer
	sealed bool
	late   int
}

func (w *sealedWriter) Write(p []byte) (int, error) {
	if w.sealed {
		w.late++
	}
	return w.Buffer.Write(p)
}

// TestExecuteProbedOnPooledMachine: ExecuteProbed runs on the pooled
// machine ExecuteContext uses and detaches its probe before returning the
// machine, so an unprobed run right after it on the same goroutine — which
// revives that machine — answers identically and streams nothing into the
// probed run's trace.
func TestExecuteProbedOnPooledMachine(t *testing.T) {
	req := &RunRequest{Benchmark: "mcf", Model: "VII", Clusters: 16, N: 64_000}
	var w sealedWriter
	probed, err := req.ExecuteProbed(context.Background(), &w)
	if err != nil {
		t.Fatalf("ExecuteProbed: %v", err)
	}
	traced := w.Len()
	w.sealed = true
	plain, err := req.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(probed, plain) {
		t.Error("probed and unprobed responses differ")
	}
	if w.late != 0 || w.Len() != traced {
		t.Errorf("the trace received %d writes (%d bytes) after ExecuteProbed returned", w.late, w.Len()-traced)
	}
	if _, samples, err := obs.ReadTrace(bytes.NewReader(w.Bytes())); err != nil || len(samples) < 2 {
		t.Fatalf("trace of %d bytes: %d samples, err %v", traced, len(samples), err)
	}
}
