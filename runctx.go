package hetwire

import (
	"context"
	"fmt"

	"hetwire/internal/core"
	"hetwire/internal/trace"
	"hetwire/internal/workload"
)

// CtxCheckInterval re-exports the simulator's cancellation granularity: the
// number of committed instructions between context polls. Cancelling a
// running simulation stops it within one interval (low milliseconds at
// observed throughput); results of completed runs are bit-identical whether
// or not a context is supplied.
const CtxCheckInterval = core.CtxCheckInterval

// RunContext is Run with cooperative cancellation and the forward-progress
// watchdog: ctx is polled every CtxCheckInterval committed instructions, and
// the run aborts with a diagnostic error if the commit frontier stops
// advancing (see core.NoProgressError). On error the partial statistics are
// still returned in the Result.
func (s *Simulator) RunContext(ctx context.Context, src trace.Stream, n uint64) (Result, error) {
	st, err := s.proc.RunContext(ctx, src, n)
	res := Result{Stats: st, Config: s.cfg}
	if named, ok := src.(interface{ Name() string }); ok {
		res.Benchmark = named.Name()
	}
	return res, err
}

// RunBenchmarkContext is RunBenchmark with cooperative cancellation: the
// simulation stops within CtxCheckInterval committed instructions of ctx
// being cancelled, returning ctx's error and the partial result.
func RunBenchmarkContext(ctx context.Context, cfg Config, benchmark string, n uint64) (Result, error) {
	prof, ok := workload.ByName(benchmark)
	if !ok {
		return Result{}, fmt.Errorf("hetwire: unknown benchmark %q (see Benchmarks())", benchmark)
	}
	return runPooled(ctx, cfg, benchmark, prof, 0, n, nil)
}

// RunKernelContext is RunKernel with cooperative cancellation (see
// RunBenchmarkContext).
func RunKernelContext(ctx context.Context, cfg Config, kernel string, n uint64) (Result, error) {
	prof, ok := workload.KernelByName(kernel)
	if !ok {
		return Result{}, fmt.Errorf("hetwire: unknown kernel %q (see Kernels())", kernel)
	}
	return runPooled(ctx, cfg, kernel, prof, 0, n, nil)
}

// runPooled executes one named workload on a pooled processor
// (core.AcquireScratch): processors are revived with Reset instead of being
// rebuilt per run, so repeated jobs — batch sweeps, server workers, the
// golden corpus, the experiment drivers — skip the construction a fresh
// machine costs (2.3–2.4 MiB at 4 clusters, 2.6–2.8 MiB at 16). The
// caches and branch predictor, 2.23 MiB of it, are shared by every
// configuration with the same Core, and the rest is kept per Config value.
// Results are bit-identical to a fresh build (core.Processor.Reset's
// contract). The first warmup instructions only warm the machine (0 on
// every served run); a non-nil probe is then attached for the measured run
// only, and detached before the processor returns to the pool.
func runPooled(ctx context.Context, cfg Config, name string, prof workload.Profile, warmup, n uint64, probe Probe) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	p := core.AcquireScratch(cfg)
	gen := workload.NewGenerator(prof)
	var st core.Stats
	var err error
	if warmup > 0 {
		err = p.Warmup(ctx, gen, warmup)
	}
	if err == nil {
		p.SetProbe(probe)
		st, err = p.RunContext(ctx, gen, n)
		p.SetProbe(nil)
	}
	core.ReleaseScratch(p)
	return Result{Stats: st, Config: cfg, Benchmark: name}, err
}

// RunMultiprogrammedContext is RunMultiprogrammed with cooperative
// cancellation: ctx is polled every CtxCheckInterval committed instructions
// summed across threads. On cancellation the partial per-thread results are
// returned alongside ctx's error.
func RunMultiprogrammedContext(ctx context.Context, cfg Config, benchmarks []string, n uint64) ([]ThreadResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(benchmarks) == 0 || len(benchmarks) > cfg.Topology.Clusters() {
		return nil, fmt.Errorf("hetwire: need between 1 and %d threads, got %d",
			cfg.Topology.Clusters(), len(benchmarks))
	}
	profs, err := multiprogProfiles(benchmarks)
	if err != nil {
		return nil, err
	}
	streams := make([]trace.Stream, len(profs))
	for i, prof := range profs {
		streams[i] = workload.NewGenerator(prof)
	}
	res, runErr := core.RunMultiprogramContext(ctx, cfg, streams, n)
	out := make([]ThreadResult, len(res))
	for i, r := range res {
		out[i] = ThreadResult{Benchmark: benchmarks[i], Clusters: r.Clusters, Stats: r.Stats}
	}
	return out, runErr
}

// runAnyContext is runAny with cancellation, accepting both benchmark and
// kernel names; probe, when non-nil, observes the run.
func runAnyContext(ctx context.Context, cfg Config, name string, n uint64, probe Probe) (Result, error) {
	prof, ok := workload.Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("hetwire: unknown benchmark %q (see Benchmarks() and Kernels())", name)
	}
	return runPooled(ctx, cfg, name, prof, 0, n, probe)
}
