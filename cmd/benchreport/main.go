// Command benchreport measures simulator throughput and allocation cost over
// a fixed scenario matrix and writes a machine-readable trajectory file, so
// performance can be tracked across commits without hand-reading `go test
// -bench` output.
//
//	benchreport                      # full matrix -> BENCH_hetwire.json
//	benchreport -quick               # smaller instruction counts (CI smoke)
//	benchreport -out /tmp/bench.json
//
// Each scenario reports instructions per wall-clock second, nanoseconds per
// simulated instruction, and heap allocations/bytes per instruction (from
// runtime.MemStats deltas around the run, single-threaded with GC settled
// first). Simulated behaviour per scenario is pinned separately by the golden
// corpus (testdata/golden); this tool tracks only cost.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"hetwire"
	"hetwire/internal/client"
	"hetwire/internal/config"
	"hetwire/internal/server"
	"hetwire/internal/tenant"
	"hetwire/internal/wire"
)

// Scenario identifies one measured configuration.
type Scenario struct {
	Model     string `json:"model"`
	Topology  string `json:"topology"`
	Benchmark string `json:"benchmark"`
	N         uint64 `json:"n"`
}

// Measurement is the cost readout for one scenario.
type Measurement struct {
	Scenario
	InstrsPerSec   float64 `json:"instrs_per_sec"`
	NsPerInstr     float64 `json:"ns_per_instr"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`
	IPC            float64 `json:"ipc"`
}

// Report is the top-level BENCH_hetwire.json document.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	// NumCPU and GoMaxProcs record the host CPU topology the numbers were
	// taken on. They make scaling rows self-describing: a batch speedup of
	// ≈1.0x on num_cpu=1 is the host's ceiling, not the engine's.
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Quick      bool          `json:"quick,omitempty"`
	Scenarios  []Measurement `json:"scenarios"`
	// ProbeOverhead compares one scenario with telemetry probes disabled vs
	// enabled (streaming to a discarded trace); the disabled path is required
	// to stay within noise of the plain simulator.
	ProbeOverhead *ProbeOverhead `json:"probe_overhead,omitempty"`
	// BatchThroughput measures the batch engine's sweep-level parallelism:
	// the same scenario matrix executed at several worker counts, with
	// speedup relative to the sequential run.
	BatchThroughput *BatchThroughput `json:"batch_throughput,omitempty"`
	// Wire measures the hetwire-bin/v1 result path: frame encode/decode
	// throughput and the zero-copy cache-hit serve cost.
	Wire *WireCost `json:"wire,omitempty"`
	// QoSOverhead compares the weighted-fair scheduler against the plain
	// FIFO queue on an identical job stream; the fair path is required to
	// stay within low single digits of FIFO.
	QoSOverhead *QoSOverhead `json:"qos_overhead,omitempty"`
	// FlightOverhead compares the serving path with the flight recorder
	// disabled vs enabled on an identical job stream; the always-on recorder
	// is required to stay within noise (<1%) of the disabled path.
	FlightOverhead *FlightOverhead `json:"flight_overhead,omitempty"`
}

// FlightOverhead is the flight-recorder-on vs recorder-off cost readout: the
// same stream of single-scenario jobs pushed through a live daemon once with
// the recorder compiled out of the hot path (nil recorder, one pointer
// compare per probe site) and once recording every admission, dispatch, and
// cache decision into the ring.
type FlightOverhead struct {
	Jobs      int     `json:"jobs"`
	Workers   int     `json:"workers"`
	N         uint64  `json:"n"`
	OffWallMS float64 `json:"off_wall_ms"`
	OnWallMS  float64 `json:"on_wall_ms"`
	// OverheadPct is how much slower the recorded stream was, in percent of
	// the recorder-off wall clock (negative means faster — noise).
	OverheadPct float64 `json:"overhead_pct"`
	// NoisePct is the spread (max-min over min, percent) of the baseline
	// side's per-round measurements: an OverheadPct smaller than NoisePct is
	// indistinguishable from host noise.
	NoisePct float64 `json:"noise_pct"`
}

// QoSOverhead is the fair-scheduler-on vs scheduler-off cost readout: the
// same stream of single-scenario jobs pushed through a live daemon once
// under the FIFO queue and once under the weighted-fair scheduler with two
// competing tenants. All jobs ride the interactive lane so both
// configurations keep every worker busy and the delta isolates dispatch
// bookkeeping (per-tenant queues, vtime accounting, CPU billing), not the
// bulk-lane reservation policy.
type QoSOverhead struct {
	Jobs       int     `json:"jobs"`
	Workers    int     `json:"workers"`
	N          uint64  `json:"n"`
	FIFOWallMS float64 `json:"fifo_wall_ms"`
	FairWallMS float64 `json:"fair_wall_ms"`
	// OverheadPct is how much slower the fair-scheduled stream was, in
	// percent of the FIFO wall clock (negative means faster — noise).
	OverheadPct float64 `json:"overhead_pct"`
	// NoisePct is the spread (max-min over min, percent) of the FIFO side's
	// per-round wall clocks; see FlightOverhead.NoisePct.
	NoisePct float64 `json:"noise_pct"`
}

// WireCost is the binary result-path cost readout, taken on a real frame
// (one simulated RunResponse). CacheHitServeNsPerOp is what the daemon pays
// to serve one stored frame — a header peek plus one buffer copy, never a
// payload decode.
type WireCost struct {
	Scenario
	FrameBytes           int     `json:"frame_bytes"`
	EncodeMBPerSec       float64 `json:"encode_mb_per_sec"`
	DecodeMBPerSec       float64 `json:"decode_mb_per_sec"`
	CacheHitServeNsPerOp float64 `json:"cache_hit_serve_ns_per_op"`
}

// BatchRow is one worker count's measurement of the batch matrix.
type BatchRow struct {
	Workers         int     `json:"workers"`
	WallMS          float64 `json:"wall_ms"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	// Speedup is sequential wall clock over this row's wall clock.
	Speedup float64 `json:"speedup"`
}

// BatchThroughput is the parallel-batch cost readout: the full matrix run
// sequentially, then at 1, 2, 4, and GOMAXPROCS workers through the batch
// engine. Results are bit-identical at every row (pinned by the golden
// corpus); only wall clock moves.
type BatchThroughput struct {
	Scenarios    int        `json:"scenarios"`
	N            uint64     `json:"n"`
	NumCPU       int        `json:"num_cpu"`
	GoMaxProcs   int        `json:"gomaxprocs"`
	SequentialMS float64    `json:"sequential_ms"`
	Rows         []BatchRow `json:"rows"`
}

// ProbeOverhead is the probes-off vs probes-on cost comparison.
type ProbeOverhead struct {
	Scenario
	OffInstrsPerSec float64 `json:"off_instrs_per_sec"`
	OnInstrsPerSec  float64 `json:"on_instrs_per_sec"`
	// OverheadPct is how much slower the probed run was, in percent of the
	// unprobed rate (negative means the probed run measured faster — noise).
	OverheadPct float64 `json:"overhead_pct"`
	// NoisePct is the spread (max-min over min, percent) of the unprobed
	// side's per-round rates; see FlightOverhead.NoisePct.
	NoisePct float64 `json:"noise_pct"`
}

// spreadPct returns the spread of a measurement series as a percentage of
// its minimum — the noise floor an overhead comparison on the same host has
// to clear before it means anything.
func spreadPct(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 {
		return 0
	}
	return (max - min) / min * 100
}

var models = []struct {
	name string
	id   config.ModelID
}{
	{"I", config.ModelI},
	{"V", config.ModelV},
	{"VIII", config.ModelVIII},
}

var topologies = []struct {
	name string
	topo config.Topology
}{
	{"crossbar4", config.Crossbar4},
	{"hierring16", config.HierRing16},
}

var benchmarks = []string{"gcc", "mcf", "swim"}

// measure runs one scenario best-of-three: the fastest pass gives the
// throughput row (a single pass on a busy host charges scheduler noise to
// the engine), and the lowest-allocation pass gives the allocation row —
// the first pass per configuration pays one-time processor construction
// before the run-scratch pool absorbs it, and the steady-state cost is
// the quantity the trajectory tracks.
func measure(sc Scenario, id config.ModelID, topo config.Topology) (Measurement, error) {
	cfg := hetwire.DefaultConfig().WithModel(id)
	cfg.Topology = topo

	m := Measurement{Scenario: sc, NsPerInstr: math.Inf(1), AllocsPerInstr: math.Inf(1), BytesPerInstr: math.Inf(1)}
	n := float64(sc.N)
	for pass := 0; pass < 3; pass++ {
		// Settle the heap so the MemStats delta reflects this run only.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := hetwire.RunBenchmark(cfg, sc.Benchmark, sc.N)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return Measurement{}, err
		}
		if rate := n / elapsed.Seconds(); rate > m.InstrsPerSec {
			m.InstrsPerSec = rate
			m.NsPerInstr = float64(elapsed.Nanoseconds()) / n
		}
		if a := float64(after.Mallocs-before.Mallocs) / n; a < m.AllocsPerInstr {
			m.AllocsPerInstr = a
		}
		if bpi := float64(after.TotalAlloc-before.TotalAlloc) / n; bpi < m.BytesPerInstr {
			m.BytesPerInstr = bpi
		}
		m.IPC = res.IPC()
	}
	return m, nil
}

// compareAB is the interleaved A/B harness behind every overhead row: five
// rounds of the baseline pass then the candidate pass (base, cand, base,
// cand, ...), keeping each side's fastest. Back-to-back alternation cancels
// slow host drift (thermal, heap growth) that a run-all-of-one-then-the-
// other order would charge entirely to whichever side went second. pass
// reports one timed run in seconds; noisePct is the spread of the baseline
// side's rounds (see FlightOverhead.NoisePct).
func compareAB(pass func(candidate bool, round int) (float64, error)) (base, cand, noisePct float64, err error) {
	var baseRuns []float64
	for round := 0; round < 5; round++ {
		for _, candidate := range []bool{false, true} {
			sec, err := pass(candidate, round)
			if err != nil {
				return 0, 0, 0, err
			}
			if candidate {
				if cand == 0 || sec < cand {
					cand = sec
				}
			} else {
				baseRuns = append(baseRuns, sec)
				if base == 0 || sec < base {
					base = sec
				}
			}
		}
	}
	return base, cand, spreadPct(baseRuns), nil
}

// measureProbeOverhead runs one scenario through ExecuteContext (no probe)
// and ExecuteProbed (interval telemetry to a discarded writer) under
// compareAB. Both paths run the identical request; the only difference is
// the probe machinery itself.
func measureProbeOverhead(count uint64) (*ProbeOverhead, error) {
	sc := Scenario{Model: "V", Topology: "crossbar4", Benchmark: "gcc", N: count}
	req := &hetwire.RunRequest{Benchmark: sc.Benchmark, Model: sc.Model, N: sc.N}
	off, on, noise, err := compareAB(func(probed bool, _ int) (float64, error) {
		runtime.GC()
		start := time.Now()
		var err error
		if probed {
			_, err = req.ExecuteProbed(context.Background(), io.Discard)
		} else {
			_, err = req.ExecuteContext(context.Background())
		}
		return time.Since(start).Seconds(), err
	})
	if err != nil {
		return nil, err
	}
	// The spread of per-round rates equals the spread of per-round times.
	offRate, onRate := float64(count)/off, float64(count)/on
	return &ProbeOverhead{
		Scenario:        sc,
		OffInstrsPerSec: offRate,
		OnInstrsPerSec:  onRate,
		OverheadPct:     (offRate - onRate) / offRate * 100,
		NoisePct:        noise,
	}, nil
}

// batchMatrix is the 18-scenario sweep the batch rows measure: the full
// model × topology × benchmark matrix as one BatchRequest.
func batchMatrix(count uint64, parallelism int) *hetwire.BatchRequest {
	return &hetwire.BatchRequest{
		Sweep: &hetwire.BatchSweep{
			Models:     []string{"I", "V", "VIII"},
			Benchmarks: []string{"gcc", "mcf", "swim"},
			Clusters:   []int{4, 16},
			Ns:         []uint64{count},
		},
		Parallelism: parallelism,
	}
}

// measureBatch times the batch matrix sequentially and at increasing worker
// counts. The workload memo cache is warmed first (a tiny-N pass builds every
// benchmark's static structure), so every measured row sees identical cache
// state and the comparison isolates scheduling, not build amortisation.
func measureBatch(count uint64) (*BatchThroughput, error) {
	warm := batchMatrix(1_000, 0)
	if _, err := warm.Execute(); err != nil {
		return nil, err
	}
	run := func(parallelism int) (time.Duration, error) {
		req := batchMatrix(count, parallelism)
		runtime.GC()
		start := time.Now()
		resp, err := req.Execute()
		if err != nil {
			return 0, err
		}
		if resp.Failed > 0 {
			return 0, fmt.Errorf("batch run: %d of %d scenarios failed", resp.Failed, len(resp.Scenarios))
		}
		return time.Since(start), nil
	}

	seq, err := run(1)
	if err != nil {
		return nil, err
	}
	nScen := 3 * 3 * 2
	bt := &BatchThroughput{
		Scenarios:    nScen,
		N:            count,
		NumCPU:       runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SequentialMS: float64(seq) / float64(time.Millisecond),
	}
	// 1/2/4 plus GOMAXPROCS gives a true scaling curve on multi-core hosts;
	// on a single-core host every row collapses to ≈1.0x and the recorded
	// num_cpu says why.
	workers := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, w := range workers {
		if seen[w] {
			continue
		}
		seen[w] = true
		wall, err := run(w)
		if err != nil {
			return nil, err
		}
		bt.Rows = append(bt.Rows, BatchRow{
			Workers:         w,
			WallMS:          float64(wall) / float64(time.Millisecond),
			ScenariosPerSec: float64(nScen) / wall.Seconds(),
			Speedup:         seq.Seconds() / wall.Seconds(),
		})
	}
	return bt, nil
}

// jobStreamPass pushes one stream of single-scenario jobs through a fresh
// daemon built from opts, submitting round-robin under the tenant keys, and
// times submission to last completion. Distinct budgets per job defeat the
// result cache, so every job simulates and every probe site fires.
func jobStreamPass(opts server.Options, keys []string, workers int, ns []uint64) (time.Duration, error) {
	opts.Workers, opts.QueueDepth = workers, len(ns)+8
	s := server.New(opts)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	clients := make([]*client.Client, len(keys))
	for i, key := range keys {
		clients[i] = client.New(client.Options{BaseURL: ts.URL, TenantKey: key})
	}
	runtime.GC()
	start := time.Now()
	ids := make([]string, len(ns))
	for i, n := range ns {
		var st server.JobStatus
		if err := clients[i%len(clients)].DoJSON(ctx, http.MethodPost, "/v1/jobs",
			map[string]any{"benchmark": "gcc", "n": n}, "", &st); err != nil {
			return 0, err
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := clients[i%len(clients)].Await(ctx, id, 2*time.Millisecond)
		if err != nil {
			return 0, err
		}
		if st.State != server.StateDone {
			return 0, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	return time.Since(start), nil
}

// streamOverhead is the readout of one job-stream comparison.
type streamOverhead struct {
	jobs, workers      int
	n                  uint64
	baseMS, candMS     float64
	overheadPct, noise float64
}

// compareStreams times the identical stream of 24 jobs through a baseline
// and a candidate daemon configuration under compareAB. config returns the
// options and tenant keys for each side.
func compareStreams(count uint64, config func(candidate bool) (server.Options, []string)) (*streamOverhead, error) {
	const jobs = 24
	workers := min(runtime.GOMAXPROCS(0), 4)
	per := max(count/2, 1_000)
	// Warm the workload memo cache so neither configuration pays the
	// one-time benchmark build.
	opts, keys := config(false)
	if _, err := jobStreamPass(opts, keys, workers, []uint64{1_000}); err != nil {
		return nil, err
	}
	base, cand, noise, err := compareAB(func(candidate bool, round int) (float64, error) {
		// Fresh budgets every pass: a shared prefix would hit the new
		// server's empty cache anyway, but distinct values also keep the two
		// configurations' workloads byte-for-byte symmetric.
		ns := make([]uint64, jobs)
		for j := range ns {
			ns[j] = per + uint64(round*jobs+j)
		}
		opts, keys := config(candidate)
		wall, err := jobStreamPass(opts, keys, workers, ns)
		return wall.Seconds(), err
	})
	if err != nil {
		return nil, err
	}
	return &streamOverhead{
		jobs: jobs, workers: workers, n: per,
		baseMS: base * 1e3, candMS: cand * 1e3,
		overheadPct: (cand - base) / base * 100, noise: noise,
	}, nil
}

// measureQoS times the identical job stream under the FIFO queue and under
// the weighted-fair scheduler with two competing tenants.
func measureQoS(count uint64) (*QoSOverhead, error) {
	r, err := compareStreams(count, func(fair bool) (server.Options, []string) {
		if !fair {
			return server.Options{FIFOScheduler: true}, []string{""}
		}
		// Two competing tenants make the fair path do real work: separate
		// queues, weight-scaled vtime updates, per-tenant accounting.
		return server.Options{Tenants: &tenant.Config{Tenants: []tenant.Spec{
			{Name: "alpha", Key: "qos-alpha", Weight: 3},
			{Name: "beta", Key: "qos-beta", Weight: 1},
		}}}, []string{"qos-alpha", "qos-beta"}
	})
	if err != nil {
		return nil, err
	}
	return &QoSOverhead{
		Jobs: r.jobs, Workers: r.workers, N: r.n,
		FIFOWallMS: r.baseMS, FairWallMS: r.candMS,
		OverheadPct: r.overheadPct, NoisePct: r.noise,
	}, nil
}

// measureFlight times the identical job stream with the flight recorder
// disabled (FlightEvents -1) and enabled at the default ring size.
func measureFlight(count uint64) (*FlightOverhead, error) {
	r, err := compareStreams(count, func(enabled bool) (server.Options, []string) {
		if !enabled {
			return server.Options{FlightEvents: -1}, []string{""}
		}
		return server.Options{}, []string{""}
	})
	if err != nil {
		return nil, err
	}
	return &FlightOverhead{
		Jobs: r.jobs, Workers: r.workers, N: r.n,
		OffWallMS: r.baseMS, OnWallMS: r.candMS,
		OverheadPct: r.overheadPct, NoisePct: r.noise,
	}, nil
}

// measureWire simulates one scenario, then times the binary result path on
// its frame: encode throughput, decode throughput, and the cache-hit serve
// operation (PeekHeader + copy, exactly the daemon's hit path).
func measureWire(count uint64) (*WireCost, error) {
	sc := Scenario{Model: "V", Topology: "crossbar4", Benchmark: "gcc", N: count}
	req := &hetwire.RunRequest{Benchmark: sc.Benchmark, Model: sc.Model, N: sc.N}
	resp, err := req.Execute()
	if err != nil {
		return nil, err
	}
	frame, err := wire.EncodeRunResult(resp)
	if err != nil {
		return nil, err
	}

	const iters = 50_000
	runtime.GC()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := wire.EncodeRunResult(resp); err != nil {
			return nil, err
		}
	}
	encElapsed := time.Since(start)

	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := wire.DecodeRunResult(frame); err != nil {
			return nil, err
		}
	}
	decElapsed := time.Since(start)

	dst := make([]byte, len(frame))
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := wire.PeekHeader(frame); err != nil {
			return nil, err
		}
		copy(dst, frame)
	}
	serveElapsed := time.Since(start)

	mb := float64(len(frame)) * iters / (1 << 20)
	return &WireCost{
		Scenario:             sc,
		FrameBytes:           len(frame),
		EncodeMBPerSec:       mb / encElapsed.Seconds(),
		DecodeMBPerSec:       mb / decElapsed.Seconds(),
		CacheHitServeNsPerOp: float64(serveElapsed.Nanoseconds()) / iters,
	}, nil
}

func main() {
	var (
		out   = flag.String("out", "BENCH_hetwire.json", "output file ('-' for stdout)")
		quick = flag.Bool("quick", false, "small instruction counts (CI smoke)")
		n     = flag.Uint64("n", 0, "override instructions per scenario (0 = default matrix)")
		check = flag.Bool("check", false, "compare two report files (old.json new.json); exit nonzero on regression")
	)
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchreport -check old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCheck(flag.Arg(0), flag.Arg(1)))
	}

	count := uint64(200_000)
	if *quick {
		count = 20_000
	}
	if *n > 0 {
		count = *n
	}

	rep := Report{
		Schema:     "hetwire-bench/v1",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	for _, mo := range models {
		for _, tp := range topologies {
			for _, bench := range benchmarks {
				sc := Scenario{Model: mo.name, Topology: tp.name, Benchmark: bench, N: count}
				m, err := measure(sc, mo.id, tp.topo)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchreport: %s/%s/%s: %v\n", sc.Model, sc.Topology, sc.Benchmark, err)
					os.Exit(1)
				}
				rep.Scenarios = append(rep.Scenarios, m)
				fmt.Fprintf(os.Stderr, "%-5s %-10s %-6s n=%-7d %10.0f instrs/s %7.1f ns/instr %6.3f allocs/instr\n",
					sc.Model, sc.Topology, sc.Benchmark, sc.N, m.InstrsPerSec, m.NsPerInstr, m.AllocsPerInstr)
			}
		}
	}

	po, err := measureProbeOverhead(count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: probe overhead: %v\n", err)
		os.Exit(1)
	}
	rep.ProbeOverhead = po
	fmt.Fprintf(os.Stderr, "probe overhead %s/%s/%s n=%-7d %10.0f instrs/s off %10.0f instrs/s on (%+.2f%%, noise %.2f%%)\n",
		po.Model, po.Topology, po.Benchmark, po.N, po.OffInstrsPerSec, po.OnInstrsPerSec, po.OverheadPct, po.NoisePct)

	bt, err := measureBatch(count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: batch throughput: %v\n", err)
		os.Exit(1)
	}
	rep.BatchThroughput = bt
	for _, row := range bt.Rows {
		fmt.Fprintf(os.Stderr, "batch matrix %d scenarios n=%-7d workers=%-2d %8.0f ms %6.2f scen/s speedup %.2fx\n",
			bt.Scenarios, bt.N, row.Workers, row.WallMS, row.ScenariosPerSec, row.Speedup)
	}

	wc, err := measureWire(count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: wire cost: %v\n", err)
		os.Exit(1)
	}
	rep.Wire = wc
	fmt.Fprintf(os.Stderr, "wire frame %d B encode %7.1f MB/s decode %7.1f MB/s cache-hit serve %6.1f ns/op\n",
		wc.FrameBytes, wc.EncodeMBPerSec, wc.DecodeMBPerSec, wc.CacheHitServeNsPerOp)

	qo, err := measureQoS(count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: qos overhead: %v\n", err)
		os.Exit(1)
	}
	rep.QoSOverhead = qo
	fmt.Fprintf(os.Stderr, "qos overhead %d jobs n=%-7d workers=%d fifo %8.1f ms fair %8.1f ms (%+.2f%%, noise %.2f%%)\n",
		qo.Jobs, qo.N, qo.Workers, qo.FIFOWallMS, qo.FairWallMS, qo.OverheadPct, qo.NoisePct)

	fo, err := measureFlight(count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: flight overhead: %v\n", err)
		os.Exit(1)
	}
	rep.FlightOverhead = fo
	fmt.Fprintf(os.Stderr, "flight overhead %d jobs n=%-7d workers=%d off %8.1f ms on %8.1f ms (%+.2f%%, noise %.2f%%)\n",
		fo.Jobs, fo.N, fo.Workers, fo.OffWallMS, fo.OnWallMS, fo.OverheadPct, fo.NoisePct)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
}
