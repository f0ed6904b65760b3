package main

import (
	"context"
	"fmt"
	"time"

	"hetwire"
)

// sweepWL is the researcher's path: one seeded BatchRequest executed
// in-process with ExecuteContext, repeated back to back for the window.
type sweepWL struct {
	seed  uint64
	root  string
	nproc int
	in    *sweepInput
	runs  []*hetwire.BatchResponse
}

// sweepWarmN is the budget of the set-up pass, which runs every scenario
// of the batch once to build its machines (core.RunScratch pool) and its
// programs (workload.Shared memo).
const sweepWarmN = 2_000

func (s *sweepWL) setup(ctx context.Context) error {
	golden, err := loadGolden(s.root)
	if err != nil {
		return err
	}
	if s.in, err = genSweep(s.seed, golden, s.nproc); err != nil {
		return err
	}
	warm := hetwire.BatchRequest{Parallelism: s.nproc}
	for _, sc := range s.in.Batch.Scenarios {
		sc.N = sweepWarmN
		warm.Scenarios = append(warm.Scenarios, sc)
	}
	resp, err := warm.ExecuteContext(ctx)
	if err != nil {
		return fmt.Errorf("sweep warm-up: %w", err)
	}
	if resp.Failed > 0 {
		return fmt.Errorf("sweep warm-up: %d scenarios failed", resp.Failed)
	}
	return nil
}

func (s *sweepWL) run(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	s.runs = nil
	var walls []time.Duration
	w := newWindow()
	for i := int64(1); i == 1 || time.Since(w.t0) < d; i++ {
		_, end := tr.begin("hetwire.BatchRequest.ExecuteContext", i, 0)
		t := time.Now()
		resp, err := s.in.Batch.ExecuteContext(ctx)
		walls = append(walls, time.Since(t))
		end(nil)
		if err != nil {
			return nil, fmt.Errorf("sweep batch %d: %w", i, err)
		}
		w.attempted += len(resp.Scenarios)
		w.failed += resp.Failed
		s.runs = append(s.runs, resp)
	}
	w.close()
	for _, sc := range s.runs[0].Scenarios {
		if sc.Response != nil {
			w.sim.add(sc.Response.Stats)
		}
	}
	// Every repetition simulates the same instructions (check verifies it),
	// so per-batch rates are the first batch's count over each batch's wall
	// time, and the run reports their median. CPU per instruction is over
	// the whole window, so periodic costs such as collections all count.
	perBatch := w.sim.instr
	w.units = perBatch * float64(len(s.runs))
	var rate, lat []float64
	for i := range walls {
		rate = append(rate, perBatch/walls[i].Seconds())
		lat = append(lat, ms(walls[i]))
	}
	w.samples = len(lat)
	w.e2e["throughput"] = median(rate)
	w.e2e["cpu_ns_per_unit"] = ratio(float64(w.cpu), w.units)
	w.e2e["latency_p50_ms"] = median(lat)
	w.vals["latency_tail_ms"] = quantile(lat, 0.9)
	w.info("sim_minstr_per_s", median(rate)/1e6, "Minstr/s")
	w.info("sim_cpu_ns_per_instr", w.e2e["cpu_ns_per_unit"], "ns")
	w.info("batches", float64(len(s.runs)), "count")
	w.info("scenarios_per_batch", float64(len(s.in.Batch.Scenarios)), "count")
	return w, nil
}

// check compares every repetition against the first, the golden-corpus
// scenarios against their pinned hashes, and two sampled scenarios against
// a sequential in-process RunRequest.Execute.
func (s *sweepWL) check(ctx context.Context) []string {
	var bad []string
	first := s.runs[0].Scenarios
	want := make([]string, len(first))
	for i, sc := range first {
		if sc.Response == nil {
			bad = append(bad, fmt.Sprintf("sweep scenario %d failed: %s", i, sc.Error))
			continue
		}
		want[i] = responseHash(sc.Response)
	}
	for r, resp := range s.runs[1:] {
		for i, sc := range resp.Scenarios {
			if sc.Response == nil || responseHash(sc.Response) != want[i] {
				bad = append(bad, fmt.Sprintf("sweep repetition %d scenario %d differs from the first run", r+1, i))
			}
		}
	}
	for _, g := range s.in.Golden {
		if want[g.Index] != g.Hash {
			bad = append(bad, fmt.Sprintf("sweep golden scenario %s: hash %s, pinned %s", g.Key, want[g.Index], g.Hash))
		}
	}
	for _, i := range []int{0, len(first) / 2} {
		req := s.in.Batch.Scenarios[i]
		resp, err := req.ExecuteContext(ctx)
		if err != nil {
			bad = append(bad, fmt.Sprintf("sweep scenario %d sequential rerun: %v", i, err))
		} else if responseHash(resp) != want[i] {
			bad = append(bad, fmt.Sprintf("sweep scenario %d: batch result differs from RunRequest.Execute", i))
		}
	}
	return bad
}

func (s *sweepWL) close() error { return nil }

// responseHash is hetwire.ResultHash over a single-program response.
func responseHash(r *hetwire.RunResponse) string {
	if r == nil || r.Stats == nil {
		return ""
	}
	return hetwire.ResultHash(hetwire.Result{Benchmark: r.Benchmark, Stats: *r.Stats})
}
