// Command perfbench is the hetwire benchmark: one seeded command that runs
// a workload against the simulator's and the daemon's public entry points,
// checks every output, and prints every metric with its unit. See README.md.
//
//	perfbench --workload sweep|serve_hits|serve_mix --seed N --seconds S --trace 0|1
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// procStart approximates process start for setup_s: package variables are
// initialised before main runs.
var procStart = time.Now()

// workload is one benchmark traffic mix. setup fills host-side state and
// leaves the program ready for its first timed request; run measures one
// window; check verifies the window's outputs afterwards, untimed.
type workload interface {
	setup(ctx context.Context) error
	run(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	check(ctx context.Context) []string
	close() error
}

var workloads = []string{"sweep", "serve_hits", "serve_mix"}

func newWorkload(name string, seed uint64, root string, nproc int) (workload, error) {
	switch name {
	case "sweep":
		return &sweepWL{seed: seed, root: root, nproc: nproc}, nil
	case "serve_hits":
		return &hitsWL{seed: seed, nproc: nproc}, nil
	case "serve_mix":
		return &mixWL{seed: seed, nproc: nproc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
}

// setupRuns is how many times set-up is measured per run (this process
// plus child processes that only set up); setup_s is their median.
const setupRuns = 3

func main() {
	var (
		name      = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 20, "measured window length in seconds")
		trace     = flag.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
		setupOnly = flag.Bool("setup-only", false, "set up, print the set-up time and exit (used for repeated set-up samples)")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// The benchmark runs from the repository root: testdata/golden is read from
// there and profiles and spans are written under outDir.
const (
	root   = "."
	outDir = ".bench_build/perfbench"
)

// runSlack bounds everything in a run but its windows: set-ups, checks and
// the profile's symbolisation. A traced run measures two windows; the
// third d is headroom for a window's last requests.
const runSlack = 110 * time.Second

func run(name string, seed uint64, d time.Duration, traced bool, setupOnly bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), runSlack+3*d)
	defer cancel()
	nproc := runtime.GOMAXPROCS(0)
	wl, err := newWorkload(name, seed, root, nproc)
	if err != nil {
		return err
	}
	if err := wl.setup(ctx); err != nil {
		wl.close()
		return fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(procStart).Seconds()
	if setupOnly {
		fmt.Printf("setup_s %v\n", setupS)
		return wl.close()
	}

	// Timed pass: end-to-end metrics, no tracing. Like a Go benchmark,
	// start the window right after a collection, so that whether the
	// collector runs inside it does not depend on how set-up ended.
	runtime.GC()
	w0, err := wl.run(ctx, d, nil)
	if err != nil {
		wl.close()
		return err
	}
	bad := wl.check(ctx)
	if err := wl.close(); err != nil {
		return err
	}
	vals := report{"peak_rss_mb": w0.peakRSS}
	for k, v := range w0.e2e {
		vals[k] = v
	}
	for _, l := range w0.infos {
		fmt.Printf("info   %-38s %16.6g %s\n", l.name, l.value, l.unit)
	}
	fmt.Printf("info   %-38s %16.6g ms\n", "latency_tail_ms", w0.vals["latency_tail_ms"])
	fmt.Printf("info   %-38s %16d count\n", "latency_samples", w0.samples)
	fmt.Printf("info   %-38s %16d count\n", "gc_cycles_in_window", w0.rt1.gcCycles-w0.rt0.gcCycles)
	fmt.Printf("info   %-38s %16.6g ratio\n", "failed_frac", ratio(float64(w0.failed), float64(w0.attempted)))
	attempted, failed := w0.attempted, w0.failed

	defs := endToEnd
	if traced {
		// Traced pass: fresh set-up, same seed and inputs, with the CPU
		// profile, spans and counter readouts on.
		defs = perLayer
		w1, prof, bad1, err := tracedPass(ctx, name, seed, nproc, d)
		if err != nil {
			return err
		}
		bad = append(bad, bad1...)
		if w0.sim != w1.sim {
			bad = append(bad, "simulated counts differ between the timed and the traced pass of one seed")
		}
		vals = layerMetrics(w0, w1, prof, nproc)
		attempted += w1.attempted
		failed += w1.failed
	} else {
		samples := []float64{setupS}
		for i := 1; i < setupRuns; i++ {
			s, err := childSetup(ctx, name, seed)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		vals["setup_s"] = median(samples)
		fmt.Printf("info   %-38s %16s s\n", "setup_s_samples", fmt.Sprint(samples))
	}
	for _, b := range bad {
		fmt.Println("check FAILED:", b)
	}
	opsFailed := failed
	failed += len(bad)
	if err := emit(os.Stdout, defs, vals, len(bad) == 0, attempted, failed); err != nil {
		return err
	}
	switch {
	case len(bad) > 0:
		return fmt.Errorf("%d correctness checks failed", len(bad))
	case opsFailed > 0:
		// A healthy run has no failed operations; one that fails fast must
		// not read as a gain.
		return fmt.Errorf("%d of %d operations failed", opsFailed, attempted)
	}
	return nil
}

// childSetup runs this binary with --setup-only and returns the set-up time
// the child measured from its own start.
func childSetup(ctx context.Context, name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var s float64
	if _, err := fmt.Sscanf(string(bytes.TrimSpace(out)), "setup_s %g", &s); err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return s, nil
}

// window is what one measured pass of a workload observed.
type window struct {
	wall, cpu         time.Duration
	attempted, failed int
	// units is the work cpu_ns_per_unit and cpu.* divide by: simulated
	// instructions on sweep and serve_mix, requests on serve_hits.
	units float64
	// e2e holds the workload's throughput, cpu_ns_per_unit and
	// latency_p50_ms; samples is the latency sample count behind the
	// latency figures (latency_tail_ms is in vals).
	e2e      report
	samples  int
	sim      simAgg
	peakRSS  float64
	rt0, rt1 rtSample
	memo0    [2]float64 // workload.Shared hits, misses before the window
	memo1    [2]float64
	vals     report // workload-specific per-layer readouts
	infos    []infoLine

	t0   time.Time
	cpu0 time.Duration
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

// newWindow opens a window: call right before the first timed request.
func newWindow() *window {
	w := &window{vals: report{}, e2e: report{}}
	w.memo0 = memoCounts()
	w.rt0 = readRuntime()
	w.cpu0 = cpuTime()
	w.t0 = time.Now()
	return w
}

// close ends the window at the last completion.
func (w *window) close() {
	w.wall = time.Since(w.t0)
	w.cpu = cpuTime() - w.cpu0
	w.rt1 = readRuntime()
	w.memo1 = memoCounts()
	w.peakRSS = peakRSSMiB()
}

func (w *window) info(name string, v float64, unit string) {
	w.infos = append(w.infos, infoLine{name, v, unit})
}

func memoCounts() [2]float64 {
	return [2]float64{expvarInt("hetwire_workload_memo", "hits"), expvarInt("hetwire_workload_memo", "misses")}
}

// profileResult is the CPU profile's layer split: samples per layer.
type profileResult struct {
	shares map[string]float64
	total  float64
}

// tracedPass sets the workload up afresh and measures one more window with
// the CPU profile and spans on; it returns the window, the profile's layer
// split and the pass's failed checks.
func tracedPass(ctx context.Context, name string, seed uint64, nproc int, d time.Duration) (*window, *profileResult, []string, error) {
	wl, err := newWorkload(name, seed, root, nproc)
	if err != nil {
		return nil, nil, nil, err
	}
	defer wl.close()
	if err := wl.setup(ctx); err != nil {
		return nil, nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	tr := newTracer()
	heap := startSampler(50*time.Millisecond, func() float64 { return float64(readRuntime().heapBytes) })
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, nil, err
	}
	w, err := wl.run(ctx, d, tr)
	pprof.StopCPUProfile()
	heapPeak := heap.finish()
	if err != nil {
		return nil, nil, nil, err
	}
	w.vals["runtime.heap_peak_mb"] = heapPeak / (1 << 20)
	bad := wl.check(ctx)
	stem := fmt.Sprintf("%s-seed%d", name, seed)
	pp, err := writeFile(outDir, stem+".cpu.pprof", buf.Bytes())
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := writeFile(outDir, stem+".spans.jsonl", tr.jsonl()); err != nil {
		return nil, nil, nil, err
	}
	prof := &profileResult{}
	if prof.shares, prof.total, err = profileShares(pp); err != nil {
		return nil, nil, nil, err
	}
	return w, prof, bad, nil
}

// layerMetrics derives the per-layer report from the traced window w1, with
// the timed window w0 as the reference for overhead and user-facing extras.
func layerMetrics(w0, w1 *window, prof *profileResult, nproc int) report {
	r := report{}
	for k, v := range w1.vals {
		r[k] = v
	}
	cpuNs := float64(w1.cpu)
	for _, l := range cpuLayers {
		r[l] = ratio(prof.shares[l], prof.total) * ratio(cpuNs, w1.units)
	}
	r["cpu.samples"] = prof.total
	w1.sim.put(r)
	perEvent := func(layer string, events float64) float64 {
		return ratio(ratio(prof.shares[layer], prof.total)*cpuNs, events)
	}
	r["noc.host_ns_per_xfer"] = perEvent("cpu.noc", (w1.sim.bX+w1.sim.pwX+w1.sim.lX)*w1.units/nonzero(w1.sim.instr))
	r["cache.host_ns_per_access"] = perEvent("cpu.cache", w1.sim.l1dAccesses*w1.units/nonzero(w1.sim.instr))
	r["bpred.host_ns_per_branch"] = perEvent("cpu.bpred", w1.sim.branches*w1.units/nonzero(w1.sim.instr))
	hits, misses := w1.memo1[0]-w1.memo0[0], w1.memo1[1]-w1.memo0[1]
	r["workload.memo_hits"] = hits
	r["workload.memo_misses"] = misses
	r["workload.memo_hit_ratio"] = ratio(hits, hits+misses)
	r["batch.cpu_util"] = ratio(float64(w1.cpu), float64(w1.wall)*float64(nproc))
	r["runtime.gc_cycles"] = float64(w1.rt1.gcCycles - w1.rt0.gcCycles)
	r["runtime.gc_pause_ms"] = (w1.rt1.gcPauseSec - w1.rt0.gcPauseSec) * 1e3
	r["runtime.allocs_per_op"] = ratio(float64(w1.rt1.allocObjs-w1.rt0.allocObjs), w1.units)
	r["runtime.alloc_bytes_per_op"] = ratio(float64(w1.rt1.allocBytes-w1.rt0.allocBytes), w1.units)
	r["trace.overhead_pct"] = 100 * (ratio(float64(w1.cpu), w1.units)/ratio(float64(w0.cpu), w0.units) - 1)
	// User-facing extras from the timed pass.
	r["failed_frac"] = ratio(float64(w0.failed), float64(w0.attempted))
	r["latency_samples"] = float64(w0.samples)
	for _, k := range []string{"latency_tail_ms", "slo_miss_frac", "async_p50_ms", "async_p95_ms", "gen.late_p99_ms"} {
		if v, ok := w0.vals[k]; ok {
			r[k] = v
		}
	}
	return r
}

// nonzero guards a divisor that is zero only when a workload simulated
// nothing, in which case every numerator is zero too.
func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
