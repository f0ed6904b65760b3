package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hetwire"
)

// metricDef declares one reported metric. The catalog below is the single
// source for printing; BENCHMARK.json must declare the same names, units and
// directions (TestPrintedMetricsDeclared).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd metrics are reported by every workload on untraced runs; what a
// "unit" of work or a latency sample is depends on the workload (README).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"throughput", "1/s", "higher"},
	{"cpu_ns_per_unit", "ns", "lower"},
	{"latency_p50_ms", "ms", "lower"},
}

// perLayer metrics come from the traced pass. A workload that does not
// exercise a layer reports 0 for it: that is the "predicted flat" column of
// the layer table.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	const lo, hi = "lower", "higher"
	add("ns", lo, cpuLayers...)
	add("count", hi, "cpu.samples", "sim.instructions")
	add("cycles/instr", lo, "sim.cpi")
	add("1/kinstr", lo, "core.operand_xfers_pki")
	add("1/kinstr", hi, "core.narrow_xfers_pki", "core.pw_diversions_pki")
	add("cycles/instr", lo, "core.src_wait_cpi", "core.fu_wait_cpi", "core.dispatch_stall_cpi")
	add("1/kinstr", lo, "lsq.partial_checks_pki", "lsq.false_deps_pki")
	add("1/kinstr", hi, "lsq.forwards_pki")
	add("1/kinstr", lo, "noc.b_xfers_pki", "noc.pw_xfers_pki", "noc.l_xfers_pki", "noc.wait_cycles_pki")
	add("ns", lo, "noc.host_ns_per_xfer")
	add("%", lo, "cache.l1d_miss_pct", "cache.l2_miss_pct")
	add("ns", lo, "cache.host_ns_per_access")
	add("1/kinstr", lo, "bpred.mispredicts_pki", "bpred.btb_misses_pki")
	add("ns", lo, "bpred.host_ns_per_branch")
	add("ratio", hi, "workload.memo_hit_ratio")
	add("count", hi, "workload.memo_hits")
	add("count", lo, "workload.memo_misses")
	add("ratio", hi, "batch.cpu_util")
	add("count", lo, "runtime.gc_cycles")
	add("ms", lo, "runtime.gc_pause_ms")
	add("count", lo, "runtime.allocs_per_op")
	add("B", lo, "runtime.alloc_bytes_per_op")
	add("MiB", lo, "runtime.heap_peak_mb")
	add("ms", lo, "server.queue_wait_ms", "server.cpu_wait_ms")
	add("us", lo, "server.cache_lookup_us")
	add("ms", lo, "server.sim_run_ms")
	add("us", lo, "server.result_encode_us")
	add("count", hi, "server.span_jobs")
	add("us", lo, "server.handler_p50_us")
	add("ratio", hi, "server.cache_hit_ratio")
	add("count", hi, "server.cache_hits")
	add("count", lo, "server.cache_misses")
	add("ratio", hi, "server.idem_replay_ratio")
	add("count", hi, "server.idem_replays", "server.idem_requests")
	add("ratio", lo, "server.worker_util")
	add("count", lo, "server.rejected", "wire.result_decodes")
	add("B", lo, "wire.resp_bytes_bin", "wire.resp_bytes_json")
	add("us", lo, "client.runwire_us", "client.run_json_us", "client.submit_us")
	add("count", lo, "client.await_polls_per_job", "client.retries", "client.resubmits")
	add("ms", lo, "tenant.interactive.queue_wait_p95_ms", "tenant.bulk.queue_wait_p95_ms")
	add("ratio", hi, "tenant.interactive.sim_cpu_share")
	add("count", lo, "sched.bulk_running_max")
	add("ratio", lo, "tenant.slo_bad_ratio_server")
	add("count", lo, "tenant.slo_bad_server")
	add("count", hi, "tenant.slo_total_server", "cluster.leases_issued")
	add("count", lo, "cluster.leases_expired", "cluster.redispatched")
	add("count", hi, "cluster.uploads_accepted", "cluster.federated_hits")
	add("ms", lo, "cluster.node_sim_ms", "cluster.node_cache_check_ms", "cluster.lease_idle_ms")
	add("count", lo, "obs.flight_events_per_req")
	add("ms", lo, "gen.late_p99_ms")
	add("%", lo, "trace.overhead_pct")
	add("ratio", lo, "failed_frac", "slo_miss_frac")
	add("ms", lo, "async_p50_ms", "async_p95_ms")
	add("ms", lo, "latency_tail_ms")
	add("count", hi, "latency_samples")
	return out
}()

// report collects metric values by name.
type report map[string]float64

// emit prints every metric of defs as a "name value unit" line, then the
// result object as the last line. A per-layer metric a workload did not
// set, or that has no samples, prints as 0; an end-to-end metric that is
// missing or not a number fails the run, since 0 would read as the best
// result.
func emit(w io.Writer, defs []metricDef, vals report, correct bool, attempted, failed int) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, attempted, failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && isEndToEnd(d.Name) {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if isEndToEnd(d.Name) {
				return fmt.Errorf("end-to-end metric %s is %v", d.Name, v)
			}
			v = 0
		}
		fmt.Fprintf(w, "metric %-38s %16.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

// simAgg sums the simulated counters of many runs. Every field is
// deterministic for a given seed.
type simAgg struct {
	instr, cycles                    float64
	operand, narrow, pwDiv           float64
	srcWait, fuWait, dispStall       float64
	partialChecks, falseDeps, fwds   float64
	bX, pwX, lX, waitCycles          float64
	branches, mispredicts, btbMisses float64
	l1dAccesses, l1dMisses, l2Misses float64
}

func (a *simAgg) add(st *hetwire.Stats) {
	a.instr += float64(st.Instructions)
	a.cycles += float64(st.Cycles)
	a.operand += float64(st.OperandTransfers)
	a.narrow += float64(st.NarrowTransfers)
	a.pwDiv += float64(st.ReadyOperandPW + st.StoreDataPW + st.BalancePW)
	a.srcWait += float64(st.SumSrcWait)
	a.fuWait += float64(st.SumFUWait)
	a.dispStall += float64(st.SumDispatchStall)
	a.partialChecks += float64(st.PartialChecks)
	a.falseDeps += float64(st.PartialFalseDeps)
	a.fwds += float64(st.StoreForwards)
	a.bX += float64(st.Net[0].Transfers)
	a.pwX += float64(st.Net[1].Transfers)
	a.lX += float64(st.Net[2].Transfers)
	a.waitCycles += float64(st.WaitCycles)
	a.branches += float64(st.Branches)
	a.mispredicts += float64(st.Mispredicts)
	a.btbMisses += float64(st.BTBMisses)
	acc := float64(st.Loads + st.Stores)
	a.l1dAccesses += acc
	a.l1dMisses += st.L1DMissRate * acc
	a.l2Misses += st.L2MissRate * st.L1DMissRate * acc
}

func (a *simAgg) put(r report) {
	pki := func(x float64) float64 { return 1000 * ratio(x, a.instr) }
	r["sim.instructions"] = a.instr
	r["sim.cpi"] = ratio(a.cycles, a.instr)
	r["core.operand_xfers_pki"] = pki(a.operand)
	r["core.narrow_xfers_pki"] = pki(a.narrow)
	r["core.pw_diversions_pki"] = pki(a.pwDiv)
	r["core.src_wait_cpi"] = ratio(a.srcWait, a.instr)
	r["core.fu_wait_cpi"] = ratio(a.fuWait, a.instr)
	r["core.dispatch_stall_cpi"] = ratio(a.dispStall, a.instr)
	r["lsq.partial_checks_pki"] = pki(a.partialChecks)
	r["lsq.false_deps_pki"] = pki(a.falseDeps)
	r["lsq.forwards_pki"] = pki(a.fwds)
	r["noc.b_xfers_pki"] = pki(a.bX)
	r["noc.pw_xfers_pki"] = pki(a.pwX)
	r["noc.l_xfers_pki"] = pki(a.lX)
	r["noc.wait_cycles_pki"] = pki(a.waitCycles)
	r["cache.l1d_miss_pct"] = 100 * ratio(a.l1dMisses, a.l1dAccesses)
	r["cache.l2_miss_pct"] = 100 * ratio(a.l2Misses, a.l1dMisses)
	r["bpred.mispredicts_pki"] = pki(a.mispredicts)
	r["bpred.btb_misses_pki"] = pki(a.btbMisses)
}
