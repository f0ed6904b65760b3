package hetwire

import (
	"context"
	"fmt"
	"io"

	"hetwire/internal/core"
	"hetwire/internal/obs"
	"hetwire/internal/trace"
	"hetwire/internal/workload"
)

// Probe re-exports the simulator's telemetry interface: an attached probe
// receives read-only interval samples every ProbeInterval committed
// instructions plus one final end-of-run sample. Attaching a probe never
// changes simulated behaviour — the golden corpus pins bit-identical results
// with probes on and off — and a run without one pays only a nil pointer
// comparison per interval.
type Probe = core.Probe

// ProbeSample re-exports the per-interval snapshot handed to a Probe.
type ProbeSample = core.ProbeSample

// ProbeInterval is the sampling cadence in committed instructions.
const ProbeInterval = core.ProbeInterval

// SetProbe attaches a telemetry probe to the simulator (nil detaches).
func (s *Simulator) SetProbe(p Probe) { s.proc.SetProbe(p) }

// ExecuteProbed is ExecuteContext with wire-class telemetry: the simulation
// streams interval samples to w as a JSONL trace (schema obs.Schema,
// currently hetwire-trace/v1) readable by the hetwiretrace CLI. The response
// is bit-identical to an unprobed ExecuteContext run of the same request.
//
// Only single-program requests can be probed: a multiprogrammed run
// interleaves several processors on one shared fabric and has no
// single-machine sample to emit. Multiprogrammed requests are rejected with
// ReasonProbeUnsupported.
func (r *RunRequest) ExecuteProbed(ctx context.Context, w io.Writer) (*RunResponse, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.Benchmark == "" {
		return nil, &RequestError{
			Code: ReasonProbeUnsupported,
			Err:  fmt.Errorf("hetwire: telemetry probing supports single-program requests only (got %d programs)", len(r.Benchmarks)),
		}
	}
	cfg, err := r.ResolveConfig()
	if err != nil {
		return nil, err
	}
	n := r.Instructions()
	rec := obs.NewRecorder(w, obs.Header{
		Benchmark:         r.Benchmark,
		Model:             cfg.Model.ID.String(),
		Clusters:          cfg.Topology.Clusters(),
		N:                 n,
		ConfigHash:        ConfigHash(cfg),
		TransmissionLineL: cfg.Tech.TransmissionLineL,
	})

	var src trace.Stream
	if prof, ok := workload.ByName(r.Benchmark); ok {
		src = workload.NewGenerator(prof)
	} else if prof, ok := workload.KernelByName(r.Benchmark); ok {
		src = workload.NewGenerator(prof)
	} else {
		// Unreachable after Validate, but fail closed.
		return nil, &RequestError{Code: ReasonUnknownBenchmark,
			Err: fmt.Errorf("hetwire: unknown benchmark %q", r.Benchmark)}
	}

	sim, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	sim.SetProbe(rec)
	res, runErr := sim.RunContext(ctx, src, n)
	if err := rec.Flush(); err != nil && runErr == nil {
		runErr = fmt.Errorf("hetwire: writing telemetry trace: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	res.Benchmark = r.Benchmark
	st := res.Stats
	return &RunResponse{
		Model:        cfg.Model.ID.String(),
		Clusters:     cfg.Topology.Clusters(),
		N:            n,
		Benchmark:    res.Benchmark,
		IPC:          st.IPC(),
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		Stats:        &st,
	}, nil
}
