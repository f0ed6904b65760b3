package hetwire

import (
	"context"
	"fmt"
	"io"

	"hetwire/internal/core"
	"hetwire/internal/obs"
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
// currently hetwire-trace/v1) readable by the hetwiretrace CLI. It runs on
// the same pooled machine and assembles the same response as
// ExecuteContext, so the response is bit-identical to an unprobed run of the
// same request and the probe machinery is the only difference.
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
	rec := obs.NewRecorder(w, obs.Header{
		Benchmark:         r.Benchmark,
		Model:             cfg.Model.ID.String(),
		Clusters:          cfg.Topology.Clusters(),
		N:                 r.Instructions(),
		ConfigHash:        ConfigHash(cfg),
		TransmissionLineL: cfg.Tech.TransmissionLineL,
	})
	resp, err := r.run(ctx, cfg, rec)
	if ferr := rec.Flush(); ferr != nil && err == nil {
		return nil, fmt.Errorf("hetwire: writing telemetry trace: %w", ferr)
	}
	return resp, err
}
