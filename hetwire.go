// Package hetwire is a cycle-level simulator of microarchitectural wire
// management in partitioned (clustered) processor architectures,
// reproducing Balasubramonian, Muralimanohar, Ramani and Venkatachalapathy,
// "Microarchitectural Wire Management for Performance and Power in
// Partitioned Architectures", HPCA-11, 2005.
//
// The library models a dynamically scheduled clustered processor (4 or 16
// clusters) whose inter-cluster links are built from heterogeneous wire
// planes — baseline B-wires, power-efficient PW-wires, and low-latency
// L-wires — together with the paper's techniques for exploiting them: the
// partial-address accelerated cache pipeline, narrow bit-width operand
// transfers, mispredict signalling on L-wires, and PW-wire steering of
// non-critical traffic.
//
// Quick start:
//
//	cfg := hetwire.DefaultConfig().WithModel(hetwire.ModelVII)
//	res, err := hetwire.RunBenchmark(cfg, "gcc", 1_000_000)
//	fmt.Printf("IPC %.2f\n", res.IPC())
//
// The experiment drivers (Figure3, Table3, Table4, ...) regenerate every
// table and figure of the paper's evaluation; see EXPERIMENTS.md for the
// measured results.
package hetwire

import (
	"context"
	"fmt"

	"hetwire/internal/config"
	"hetwire/internal/core"
	"hetwire/internal/trace"
	"hetwire/internal/workload"
	"hetwire/internal/xrand"
)

// Stats re-exports the simulator's statistics type.
type Stats = core.Stats

// Config aliases the simulated-machine configuration; construct with
// DefaultConfig and refine with WithModel or direct field edits.
type Config = config.Config

// ModelID selects one of the paper's interconnect models I..X.
type ModelID = config.ModelID

// The paper's interconnect models (Tables 3 and 4).
const (
	ModelI    = config.ModelI
	ModelII   = config.ModelII
	ModelIII  = config.ModelIII
	ModelIV   = config.ModelIV
	ModelV    = config.ModelV
	ModelVI   = config.ModelVI
	ModelVII  = config.ModelVII
	ModelVIII = config.ModelVIII
	ModelIX   = config.ModelIX
	ModelX    = config.ModelX
)

// Topologies.
const (
	Crossbar4  = config.Crossbar4
	HierRing16 = config.HierRing16
)

// Steering policies (see config.SteeringPolicy).
const (
	SteerDynamic    = config.SteerDynamic
	SteerStatic     = config.SteerStatic
	SteerRoundRobin = config.SteerRoundRobin
)

// DefaultConfig returns the paper's baseline machine: 4 clusters, Model I
// homogeneous B-wire interconnect, Table 1 core parameters, no
// heterogeneous-wire techniques.
func DefaultConfig() Config { return config.Default() }

// Result is the outcome of one simulation run.
type Result struct {
	core.Stats
	Benchmark string
	Config    Config
}

// Simulator wraps one configured processor instance. A Simulator is
// single-use: build one per run. Not safe for concurrent use; run separate
// Simulators on separate goroutines instead.
type Simulator struct {
	cfg  config.Config
	proc *core.Processor
}

// NewSimulator builds a simulator for the configuration.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, proc: core.New(cfg)}, nil
}

// Run simulates n instructions from the stream. When the stream knows its
// workload's name (workload generators implement Name), the result is
// labeled with it; anonymous streams such as trace-file replays leave
// Result.Benchmark empty. Run panics if the engine cannot keep the run's
// timing exact or making progress, a broken invariant; RunRequest's
// ExecuteContext reports the same failures as errors.
func (s *Simulator) Run(src trace.Stream, n uint64) Result {
	st := s.proc.Run(src, n)
	res := Result{Stats: st, Config: s.cfg}
	if named, ok := src.(interface{ Name() string }); ok {
		res.Benchmark = named.Name()
	}
	return res
}

// Warmup simulates n instructions and discards their statistics, keeping
// caches, predictors and queues warm (the paper warms structures for 1M
// instructions before measuring). It panics on an engine fault, as Run
// does. An attached probe samples the warmup as well.
func (s *Simulator) Warmup(src trace.Stream, n uint64) {
	if err := s.proc.Warmup(context.Background(), src, n); err != nil {
		panic(err)
	}
}

// NarrowPredictorRates exposes the narrow-operand predictor's coverage and
// false-narrow rate after a run (paper Section 4 claims: 95% and 2%).
func (s *Simulator) NarrowPredictorRates() (coverage, falseNarrow float64) {
	return s.proc.NarrowCoverage(), s.proc.NarrowFalseRate()
}

// Benchmarks lists the names of the 23 SPEC2000-like synthetic benchmarks.
func Benchmarks() []string { return workload.Names() }

// RunBenchmark runs one named benchmark for n instructions on the given
// configuration.
func RunBenchmark(cfg Config, benchmark string, n uint64) (Result, error) {
	return RunBenchmarkContext(context.Background(), cfg, benchmark, n)
}

// ThreadResult is one thread's outcome in a multiprogrammed run.
type ThreadResult struct {
	Benchmark string
	Clusters  []int
	Stats     core.Stats
}

// RunMultiprogrammed executes several benchmarks concurrently on one
// machine: clusters are partitioned evenly among the threads, while the
// inter-cluster network and the memory hierarchy are shared — the
// thread-level-parallelism organisation the paper motivates for 16-cluster
// machines. Each thread's benchmark is placed in a disjoint address space.
func RunMultiprogrammed(cfg Config, benchmarks []string, n uint64) ([]ThreadResult, error) {
	return RunMultiprogrammedContext(context.Background(), cfg, benchmarks, n)
}

// multiprogProfiles resolves benchmark or kernel names to workload profiles
// placed in disjoint address spaces with pairwise-distinct generator seeds.
// Thread i's seed is derived from the profile's base seed with a splitmix64
// step, so no thread — not even thread 0 — replays the stream of a
// single-program run of the same benchmark.
func multiprogProfiles(benchmarks []string) ([]workload.Profile, error) {
	profs := make([]workload.Profile, len(benchmarks))
	for i, b := range benchmarks {
		prof, ok := workload.Lookup(b)
		if !ok {
			return nil, fmt.Errorf("hetwire: unknown benchmark %q", b)
		}
		prof.AddrOffset = uint64(i) << 33
		prof.Seed = xrand.Mix(prof.Seed, uint64(i))
		profs[i] = prof
	}
	return profs, nil
}

// Kernels lists the synthetic microbenchmark kernels (pchase, stream,
// brstorm, alu, xfer), accepted anywhere a benchmark name is.
func Kernels() []string {
	ks := workload.Kernels()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Name
	}
	return out
}

// RunKernel runs one named microbenchmark kernel.
func RunKernel(cfg Config, kernel string, n uint64) (Result, error) {
	return RunKernelContext(context.Background(), cfg, kernel, n)
}
