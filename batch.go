package hetwire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"hetwire/internal/batch"
)

// MaxSweepPoints caps how many scenarios one batch (a library call or a
// daemon batch job) may expand to. It bounds both the admission cost of
// validating a batch and the memory its merged response retains; larger
// studies split into several batches, which the result cache then stitches
// together for free.
const MaxSweepPoints = 1024

// BatchSweep describes cartesian sweep axes: the cross product of
// models × benchmarks × clusters × instruction counts, every combination
// becoming one scenario. Empty Clusters and Ns axes default to a single
// unset value (the config's topology, DefaultRunInstructions).
type BatchSweep struct {
	Models     []string `json:"models,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Clusters   []int    `json:"clusters,omitempty"`
	Ns         []uint64 `json:"ns,omitempty"`
	// Config optionally carries the base machine configuration every
	// swept scenario starts from (see RunRequest.Config).
	Config json.RawMessage `json:"config,omitempty"`
}

// BatchRequest asks for many simulations as one first-class request: an
// explicit scenario list, cartesian sweep axes, or both (explicit scenarios
// first). Expansion order is deterministic, and execution — however parallel
// — reports results in expansion order with per-scenario error isolation.
type BatchRequest struct {
	// Scenarios are explicit per-scenario run requests.
	Scenarios []RunRequest `json:"scenarios,omitempty"`
	// Sweep adds the cross product of its axes after the explicit scenarios.
	Sweep *BatchSweep `json:"sweep,omitempty"`
	// Parallelism bounds concurrent scenario executions (0 = the process
	// CPU-token capacity, i.e. GOMAXPROCS). Whatever the level, results are
	// bit-identical: parallelism changes wall clock, never output.
	Parallelism int `json:"parallelism,omitempty"`
}

// Expand enumerates the batch's scenarios in their canonical order:
// explicit scenarios first, then the sweep's cross product in
// benchmark-major order (benchmarks × models × clusters × ns).
func (b *BatchRequest) Expand() ([]RunRequest, error) {
	reqs := append([]RunRequest(nil), b.Scenarios...)
	if b.Sweep != nil {
		s := b.Sweep
		if len(s.Models) == 0 || len(s.Benchmarks) == 0 {
			return nil, &RequestError{Code: ReasonBadRequest,
				Err: fmt.Errorf("hetwire: batch sweep needs at least one model and one benchmark")}
		}
		clusters := s.Clusters
		if len(clusters) == 0 {
			clusters = []int{0}
		}
		ns := s.Ns
		if len(ns) == 0 {
			ns = []uint64{DefaultRunInstructions}
		}
		for _, bench := range s.Benchmarks {
			for _, m := range s.Models {
				for _, cl := range clusters {
					for _, n := range ns {
						reqs = append(reqs, RunRequest{
							Benchmark: bench,
							Model:     m,
							Clusters:  cl,
							N:         n,
							Config:    s.Config,
						})
					}
				}
			}
		}
	}
	if len(reqs) == 0 {
		return nil, &RequestError{Code: ReasonBadRequest,
			Err: fmt.Errorf("hetwire: batch request has no scenarios (set scenarios and/or sweep)")}
	}
	return reqs, nil
}

// Validate checks the whole batch without running it: the expansion must
// succeed, stay within MaxSweepPoints (ReasonBatchTooLarge otherwise), and
// every expanded scenario must pass RunRequest.Validate — a scenario
// rejection keeps its specific reason code, prefixed with the scenario
// index so callers can locate the offender in a thousand-point sweep.
func (b *BatchRequest) Validate() error {
	_, err := b.ValidExpansion()
	return err
}

// ValidExpansion validates the batch as Validate does and returns the
// expansion it checked, so a caller that runs the batch expands it once.
func (b *BatchRequest) ValidExpansion() ([]RunRequest, error) {
	if b.Parallelism < 0 {
		return nil, &RequestError{Code: ReasonBadRequest,
			Err: fmt.Errorf("hetwire: batch parallelism must be >= 0, got %d", b.Parallelism)}
	}
	reqs, err := b.Expand()
	if err != nil {
		return nil, err
	}
	if len(reqs) > MaxSweepPoints {
		return nil, &RequestError{Code: ReasonBatchTooLarge,
			Err: fmt.Errorf("hetwire: batch expands to %d scenarios, limit is %d (split the study)",
				len(reqs), MaxSweepPoints)}
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return nil, &RequestError{Code: ReasonCode(err),
				Err: fmt.Errorf("hetwire: batch scenario %d: %w", i, err)}
		}
	}
	return reqs, nil
}

// BatchScenario is one scenario's slot in a batch response, at the index its
// expansion order assigned. Exactly one of Response and Error is set: a
// failed or cancelled scenario never disturbs its neighbours.
type BatchScenario struct {
	Index    int          `json:"index"`
	Request  RunRequest   `json:"request"`
	Response *RunResponse `json:"response,omitempty"`
	Error    string       `json:"error,omitempty"`
	// Reason is the machine-readable code for Error when one applies.
	Reason string `json:"reason,omitempty"`
	// Cached reports that the scenario was served from a result cache
	// (set by the hetwired daemon; always false on the library path).
	Cached bool `json:"cached,omitempty"`
}

// BatchResponse is the deterministic merge of a batch's scenario results:
// Scenarios is always indexed in expansion order regardless of the order
// executions completed in.
type BatchResponse struct {
	Scenarios []BatchScenario `json:"scenarios"`
	Completed int             `json:"completed"`
	Failed    int             `json:"failed"`
	// CacheHits counts scenarios served from a result cache (daemon path).
	CacheHits int `json:"cache_hits,omitempty"`
}

// Execute runs the batch to completion on the process CPU-token pool.
func (b *BatchRequest) Execute() (*BatchResponse, error) {
	return b.ExecuteContext(context.Background())
}

// ExecuteContext validates, expands, and executes the batch with bounded
// parallelism. Scenario failures are isolated into their BatchScenario slot;
// cancelling ctx stops the whole batch (running scenarios stop within
// CtxCheckInterval, unstarted ones are marked cancelled) and returns ctx's
// error alongside the partial response. Completed scenarios are bit-identical
// to running their RunRequest.Execute sequentially, at every parallelism.
func (b *BatchRequest) ExecuteContext(ctx context.Context) (*BatchResponse, error) {
	reqs, err := b.ValidExpansion()
	if err != nil {
		return nil, err
	}
	out := &BatchResponse{Scenarios: make([]BatchScenario, len(reqs))}
	errs := batch.Run(ctx, len(reqs), b.Parallelism, func(ctx context.Context, i int) error {
		resp, err := reqs[i].ExecuteContext(ctx)
		if err != nil {
			return err
		}
		out.Scenarios[i].Response = resp
		return nil
	})
	for i := range out.Scenarios {
		sc := &out.Scenarios[i]
		sc.Index = i
		sc.Request = reqs[i]
		switch {
		case errs[i] != nil:
			sc.Error = errs[i].Error()
			if errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded) {
				sc.Reason = "cancelled"
			} else {
				sc.Reason = ReasonCode(errs[i])
			}
			out.Failed++
		default:
			out.Completed++
		}
	}
	return out, ctx.Err()
}
