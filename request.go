package hetwire

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hetwire/internal/config"
	"hetwire/internal/stats"
	"hetwire/internal/workload"
)

// DefaultRunInstructions is the instruction budget used when a RunRequest
// leaves N zero (the paper measures 100M-instruction windows; the serving
// default is small enough for interactive latency).
const DefaultRunInstructions = 1_000_000

// Admission limits enforced by RunRequest.Validate. They bound what the
// serving API will accept — a single unvalidated request must not be able to
// pin a worker for hours or address more threads than any topology has. The
// library entry points (RunBenchmark etc.) are deliberately uncapped: batch
// experiments legitimately run longer windows.
const (
	// MaxInstructions caps the per-program instruction budget at the paper's
	// full measurement window (100M instructions, roughly a minute of
	// simulation at observed throughput).
	MaxInstructions = 100_000_000
	// MaxBenchmarks caps a multiprogrammed request at the largest cluster
	// count any topology provides (the 16-cluster hierarchical ring).
	MaxBenchmarks = 16
)

// RunRequest describes one simulation as accepted by the hetwired serving
// API: a single benchmark or kernel run, or a multiprogrammed run of
// several programs sharing one machine. Simulations are deterministic —
// the resolved configuration plus the workload identity and instruction
// count fully determine the result — which is what makes responses
// cacheable by CacheKey.
type RunRequest struct {
	// Benchmark names one synthetic benchmark (see Benchmarks) or kernel
	// (see Kernels). Exactly one of Benchmark and Benchmarks must be set.
	Benchmark string `json:"benchmark,omitempty"`
	// Benchmarks requests a multiprogrammed run: the programs share the
	// interconnect and memory hierarchy on disjoint cluster partitions.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// N is the instruction budget per program (DefaultRunInstructions if 0).
	N uint64 `json:"n,omitempty"`
	// Config optionally carries a machine configuration in the config-file
	// JSON shape (see LoadConfigFile); the paper's Model I baseline when
	// absent.
	Config json.RawMessage `json:"config,omitempty"`
	// Model, when non-empty, overrides the configuration's interconnect
	// model (I..X) and enables the techniques that model supports —
	// convenient for sweeps that vary only the model.
	Model string `json:"model,omitempty"`
	// Clusters, when non-zero, overrides the cluster count (4 or 16).
	Clusters int `json:"clusters,omitempty"`
}

// Instructions returns the effective instruction budget.
func (r *RunRequest) Instructions() uint64 {
	if r.N == 0 {
		return DefaultRunInstructions
	}
	return r.N
}

// ResolveConfig materialises the request's machine configuration: the
// embedded config document (or the default baseline), with the Model and
// Clusters overrides applied.
func (r *RunRequest) ResolveConfig() (Config, error) {
	cfg := DefaultConfig()
	if len(r.Config) > 0 {
		var err error
		cfg, err = ConfigFromJSON(r.Config)
		if err != nil {
			return Config{}, err
		}
	}
	if r.Model != "" {
		id, ok := modelByName[r.Model]
		if !ok {
			return Config{}, fmt.Errorf("hetwire: unknown model %q (use I..X)", r.Model)
		}
		cfg = cfg.WithModel(id)
	}
	switch r.Clusters {
	case 0:
	case 4:
		cfg.Topology = config.Crossbar4
	case 16:
		cfg.Topology = config.HierRing16
	default:
		return Config{}, fmt.Errorf("hetwire: clusters must be 4 or 16, got %d", r.Clusters)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks the request without running it, including the admission
// limits: instruction budgets beyond MaxInstructions and multiprogrammed
// requests with more programs than MaxBenchmarks (or than the resolved
// topology has clusters) are rejected with instructive errors. Every
// rejection is a *RequestError carrying a machine-readable reason code
// (see ReasonCode); the daemon surfaces the code to clients and counts
// rejections per code in /metrics.
func (r *RunRequest) Validate() error {
	if (r.Benchmark == "") == (len(r.Benchmarks) == 0) {
		return &RequestError{Code: ReasonBadRequest,
			Err: fmt.Errorf("hetwire: request must set exactly one of benchmark and benchmarks")}
	}
	if r.N > MaxInstructions {
		return &RequestError{Code: ReasonBudgetExceeded,
			Err: fmt.Errorf("hetwire: instruction budget %d exceeds the per-request limit of %d (split the run, or use the library API for batch windows)",
				r.N, uint64(MaxInstructions))}
	}
	if len(r.Benchmarks) > MaxBenchmarks {
		return &RequestError{Code: ReasonTooManyPrograms,
			Err: fmt.Errorf("hetwire: %d programs exceed the multiprogrammed limit of %d (no topology has more clusters)",
				len(r.Benchmarks), MaxBenchmarks)}
	}
	names := r.Benchmarks
	if r.Benchmark != "" {
		names = []string{r.Benchmark}
	}
	for _, b := range names {
		if _, ok := workload.ByName(b); ok {
			continue
		}
		if _, ok := workload.KernelByName(b); ok {
			continue
		}
		return &RequestError{Code: ReasonUnknownBenchmark,
			Err: fmt.Errorf("hetwire: unknown benchmark %q (see Benchmarks() and Kernels())", b)}
	}
	cfg, err := r.ResolveConfig()
	if err != nil {
		return &RequestError{Code: ReasonBadConfig, Err: err}
	}
	if n := len(r.Benchmarks); n > cfg.Topology.Clusters() {
		return &RequestError{Code: ReasonTopologyMismatch,
			Err: fmt.Errorf("hetwire: %d programs need %d clusters but the topology has %d",
				n, n, cfg.Topology.Clusters())}
	}
	return nil
}

// CacheKey returns the content-addressed identity of the request: a hex
// SHA-256 over the ConfigHash of the resolved configuration, the workload
// names, and the instruction budget. Requests that resolve to the same
// machine and workload share a key even when expressed differently (e.g.
// model given inline vs. in the config document), so a result cache keyed
// on it deduplicates exactly the requests that must produce byte-identical
// results.
func (r *RunRequest) CacheKey() (string, error) {
	cfg, err := r.ResolveConfig()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(ConfigHash(cfg)))
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	if r.Benchmark != "" {
		writeStr("single")
		writeStr(r.Benchmark)
	} else {
		writeStr("multi")
		for _, b := range r.Benchmarks {
			writeStr(b)
		}
	}
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], r.Instructions())
	h.Write(n[:])
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ThreadSummary is one program's outcome within a multiprogrammed response.
type ThreadSummary struct {
	Benchmark string  `json:"benchmark"`
	Clusters  []int   `json:"clusters"`
	IPC       float64 `json:"ipc"`
	Stats     Stats   `json:"stats"`
}

// RunResponse is the result of executing a RunRequest. For multiprogrammed
// requests IPC is the arithmetic mean over threads (the paper's summary
// metric) and Threads carries the per-program detail; for single runs
// Stats carries the full readout.
type RunResponse struct {
	Benchmark    string          `json:"benchmark,omitempty"`
	Benchmarks   []string        `json:"benchmarks,omitempty"`
	Model        string          `json:"model"`
	Clusters     int             `json:"clusters"`
	N            uint64          `json:"n"`
	IPC          float64         `json:"ipc"`
	Instructions uint64          `json:"instructions"`
	Cycles       uint64          `json:"cycles"`
	Stats        *Stats          `json:"stats,omitempty"`
	Threads      []ThreadSummary `json:"threads,omitempty"`
}

// Execute runs the request to completion and builds its response. It is
// synchronous and CPU-bound; callers wanting queueing, caching, or
// cancellation use the hetwired daemon, which layers them on top.
func (r *RunRequest) Execute() (*RunResponse, error) {
	return r.ExecuteContext(context.Background())
}

// ExecuteContext is Execute with cooperative cancellation: the simulation
// polls ctx every CtxCheckInterval committed instructions and returns ctx's
// error (discarding the partial run) once it is cancelled. Completed runs
// are bit-identical to Execute.
func (r *RunRequest) ExecuteContext(ctx context.Context) (*RunResponse, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	cfg, err := r.ResolveConfig()
	if err != nil {
		return nil, err
	}
	return r.run(ctx, cfg, nil)
}

// run simulates the validated request on its resolved configuration and
// assembles the response. A non-nil probe observes a single-program run.
func (r *RunRequest) run(ctx context.Context, cfg Config, probe Probe) (*RunResponse, error) {
	n := r.Instructions()
	resp := &RunResponse{
		Model:    cfg.Model.ID.String(),
		Clusters: cfg.Topology.Clusters(),
		N:        n,
	}
	if r.Benchmark != "" {
		res, err := runAnyContext(ctx, cfg, r.Benchmark, n, probe)
		if err != nil {
			return nil, err
		}
		st := res.Stats
		resp.Benchmark = res.Benchmark
		resp.IPC = st.IPC()
		resp.Instructions = st.Instructions
		resp.Cycles = st.Cycles
		resp.Stats = &st
		return resp, nil
	}
	threads, err := RunMultiprogrammedContext(ctx, cfg, r.Benchmarks, n)
	if err != nil {
		return nil, err
	}
	resp.Benchmarks = r.Benchmarks
	ipcs := make([]float64, len(threads))
	for i, tr := range threads {
		ipcs[i] = tr.Stats.IPC()
		resp.Instructions += tr.Stats.Instructions
		if tr.Stats.Cycles > resp.Cycles {
			resp.Cycles = tr.Stats.Cycles
		}
		resp.Threads = append(resp.Threads, ThreadSummary{
			Benchmark: tr.Benchmark,
			Clusters:  tr.Clusters,
			IPC:       ipcs[i],
			Stats:     tr.Stats,
		})
	}
	resp.IPC = stats.ArithmeticMean(ipcs)
	return resp, nil
}
