package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"hetwire"
	"hetwire/internal/client"
	"hetwire/internal/server"
	"hetwire/internal/tenant"
	"hetwire/internal/wire"
)

// Open-loop limits for serve_mix. latencyLimit is the interactive
// tenant's slo_ms; a run whose generator fell behind its schedule by more
// than lateBound at p99, or whose backlog grew, is invalid.
const (
	latencyLimit = 500 * time.Millisecond
	lateBound    = 100 * time.Millisecond
	clusterToken = "perfbench-cluster-token"
	keyInter     = "perfbench-interactive"
	keyBulk      = "perfbench-bulk"
)

// mixWL is the write path under contention: an open loop at seeded Poisson
// arrival times against a coordinator with one in-process node agent, two
// tenants sharing it.
type mixWL struct {
	seed   uint64
	nproc  int
	d      *daemon
	icl    *client.Client // interactive tenant
	bcl    *client.Client // bulk tenant
	itr    *http.Transport
	btr    *http.Transport
	icnt   transportCounts
	bcnt   transportCounts
	events []mixEvent
	out    []mixOutcome
}

// mixOutcome is what one scheduled event produced.
type mixOutcome struct {
	late  time.Duration // issue time minus due time
	lat   time.Duration // completion minus due time
	err   error
	hit   bool
	resp  *hetwire.RunResponse
	job   string
	frame [][]byte // bulk: streamed scenario result frames, by index
}

func (m *mixWL) setup(ctx context.Context) error {
	tcfg := &tenant.Config{Tenants: []tenant.Spec{
		{Name: tenantInteractive, Key: keyInter, Weight: 3, SLOMS: float64(latencyLimit / time.Millisecond)},
		{Name: tenantBulk, Key: keyBulk, Weight: 1},
	}}
	if err := tcfg.Validate(); err != nil {
		return err
	}
	var err error
	m.d, err = startDaemon(server.Options{Tenants: tcfg, Cluster: &server.ClusterOptions{Token: clusterToken}})
	if err != nil {
		return err
	}
	if err := m.d.joinNode(ctx); err != nil {
		return err
	}
	m.icl, m.itr = newClient(m.d.base, keyInter, m.nproc, &m.icnt)
	m.bcl, m.btr = newClient(m.d.base, keyBulk, m.nproc, &m.bcnt)
	// Warm the process-wide machine pool and program memo: one short run
	// per machine configuration and per program. Their budgets are below
	// every scheduled request's, so nothing the window asks for is cached.
	warm := hetwire.BatchRequest{Parallelism: m.nproc}
	for i, p := range programs() {
		warm.Scenarios = append(warm.Scenarios, hetwire.RunRequest{Benchmark: p, Model: models[i%len(models)], Clusters: 4, N: 1000})
	}
	for i, mo := range models {
		for _, cl := range clusterCounts {
			warm.Scenarios = append(warm.Scenarios, hetwire.RunRequest{Benchmark: programs()[i], Model: mo, Clusters: cl, N: 1000})
		}
	}
	if resp, err := warm.ExecuteContext(ctx); err != nil || resp.Failed > 0 {
		return fmt.Errorf("serve_mix warm-up: %v", err)
	}
	// One small bulk batch through the cluster proves the lease path.
	probe := &hetwire.BatchRequest{Scenarios: warm.Scenarios[:2]}
	st, err := m.bcl.SubmitBatch(ctx, probe, 0)
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	if _, err := m.bcl.StreamBatch(ctx, st.ID, nil); err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	return nil
}

func (m *mixWL) run(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	m.events = genMix(m.seed, d)
	m.out = make([]mixOutcome, len(m.events))
	before, err := m.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	var bulkRunning *sampler
	if tr != nil {
		bulkRunning = startSampler(20*time.Millisecond, func() float64 { return expvarInt("hetwired_sched", "bulk_running") })
	}
	w := newWindow()
	var wg sync.WaitGroup
	var mu sync.Mutex
	inFlight := 0
	backlog := make([]int, len(m.events)) // in-flight count seen at each dispatch
dispatch:
	for i := range m.events {
		due := w.t0.Add(m.events[i].Due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		}
		mu.Lock()
		backlog[i] = inFlight
		inFlight++
		mu.Unlock()
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			m.out[i] = m.issue(ctx, &m.events[i], due, int64(i+1), tr)
			mu.Lock()
			inFlight--
			mu.Unlock()
		}(i, due)
	}
	wg.Wait()
	w.close()
	if bulkRunning != nil {
		w.vals["sched.bulk_running_max"] = bulkRunning.finish()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := m.readCounters(ctx)
	if err != nil {
		return nil, err
	}

	var syncLat, asyncLat, bulkLat, late []float64
	var bulkScen, sloMiss, interactive int
	var bulkSec float64
	for i, ev := range m.events {
		o := &m.out[i]
		late = append(late, ms(o.late))
		w.attempted++
		if o.err != nil {
			// Any failure makes the run exit non-zero.
			if w.failed == 0 {
				fmt.Fprintf(os.Stderr, "serve_mix: %s request %d failed: %v\n", ev.Tenant, i, o.err)
			}
			w.failed++
		}
		if ev.Tenant == tenantBulk {
			if o.err == nil {
				bulkScen += len(ev.Batch.Scenarios)
				bulkSec += o.lat.Seconds()
				bulkLat = append(bulkLat, ms(o.lat))
			}
			continue
		}
		interactive++
		if o.err != nil || o.lat > latencyLimit {
			sloMiss++
		}
		if o.err != nil {
			continue
		}
		if ev.Path == pathWire {
			syncLat = append(syncLat, ms(o.lat))
		} else {
			asyncLat = append(asyncLat, ms(o.lat))
		}
		w.sim.add(o.resp.Stats)
	}
	for _, o := range m.out {
		for _, f := range o.frame {
			if resp, err := wire.DecodeRunResult(f); err == nil {
				w.sim.add(resp.Stats)
			}
		}
	}
	w.units = w.sim.instr
	w.samples = len(syncLat)
	// The arrival schedule fixes how many bulk scenarios a window offers, so
	// scenarios over window time would measure the schedule. Throughput is
	// scenarios per second of bulk-job time instead, from each batch's due
	// time to its last streamed frame: it falls when the bulk path slows.
	w.e2e["throughput"] = ratio(float64(bulkScen), bulkSec)
	w.e2e["cpu_ns_per_unit"] = ratio(float64(w.cpu), w.units)
	w.e2e["latency_p50_ms"] = median(syncLat)
	w.vals["latency_tail_ms"] = quantile(syncLat, 0.95)
	lateP99 := quantile(late, 0.99)
	w.vals["gen.late_p99_ms"] = lateP99
	w.vals["slo_miss_frac"] = ratio(float64(sloMiss), float64(interactive))
	w.vals["async_p50_ms"] = median(asyncLat)
	w.vals["async_p95_ms"] = quantile(asyncLat, 0.95)
	w.info("sync_p50_ms", median(syncLat), "ms")
	w.info("sync_p75_ms", quantile(syncLat, 0.75), "ms")
	w.info("sync_p90_ms", quantile(syncLat, 0.9), "ms")
	w.info("sync_p95_ms", quantile(syncLat, 0.95), "ms")
	w.info("sync_samples", float64(len(syncLat)), "count")
	w.info("async_p50_ms", median(asyncLat), "ms")
	w.info("async_p95_ms", quantile(asyncLat, 0.95), "ms")
	w.info("async_samples", float64(len(asyncLat)), "count")
	w.info("bulk_p50_ms", median(bulkLat), "ms")
	w.info("bulk_samples", float64(len(bulkLat)), "count")
	w.info("bulk_scen_per_job_s", w.e2e["throughput"], "scen/s")
	// Offered by the schedule: a validity check, not a measurement.
	w.info("bulk_scen_per_s", float64(bulkScen)/w.wall.Seconds(), "scen/s")
	w.info("slo_miss_frac", w.vals["slo_miss_frac"], "ratio")
	w.info("sim_cpu_ns_per_instr", float64(w.cpu)/nonzero(w.sim.instr), "ns")
	w.info("gen.late_p99_ms", lateP99, "ms")
	if lateP99 > ms(lateBound) {
		return nil, fmt.Errorf("serve_mix run invalid: generator ran %.1f ms late at p99 (bound %v)", lateP99, lateBound)
	}
	if grew(backlog) {
		return nil, fmt.Errorf("serve_mix run invalid: the backlog grew over the run (in-flight at dispatch %v ... %v)",
			backlog[:min(8, len(backlog))], backlog[max(0, len(backlog)-8):])
	}
	m.layerValues(ctx, w, before, after, tr)
	return w, nil
}

// grew reports a backlog that kept growing: the in-flight count seen by the
// last quarter of dispatches averages more than twice the first half's,
// plus a small absolute slack for Poisson bursts.
func grew(backlog []int) bool {
	n := len(backlog)
	if n < 8 {
		return false
	}
	avg := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return avg(backlog[3*n/4:]) > 2*avg(backlog[:n/2])+4
}

// issue sends one scheduled request, timing it from its due time.
func (m *mixWL) issue(ctx context.Context, ev *mixEvent, due time.Time, req int64, tr *tracer) mixOutcome {
	o := mixOutcome{late: time.Since(due)}
	switch {
	case ev.Tenant == tenantBulk:
		id, end := tr.begin("client.SubmitBatch", req, 0)
		st, err := m.bcl.SubmitBatch(ctx, ev.Batch, 0)
		end(nil)
		if err != nil {
			o.err = err
			break
		}
		o.job = st.ID
		o.frame = make([][]byte, len(ev.Batch.Scenarios))
		_, end = tr.begin("client.StreamBatch", req, id)
		tl, err := m.bcl.StreamBatch(ctx, st.ID, func(sc *wire.Scenario) error {
			if sc.Error != "" {
				return fmt.Errorf("bulk scenario %d: %s", sc.Index, sc.Error)
			}
			o.frame[sc.Index] = sc.Result
			return nil
		})
		end(nil)
		if err == nil && tl.Completed != len(ev.Batch.Scenarios) {
			err = fmt.Errorf("bulk job %s completed %d of %d scenarios", st.ID, tl.Completed, tl.Total)
		}
		o.err = err
	case ev.Path == pathWire:
		_, end := tr.begin("client.RunWire", req, 0)
		o.resp, o.hit, o.err = m.icl.RunWire(ctx, ev.Run)
		end(nil)
	default:
		_, end := tr.begin("client.Run", req, 0)
		var st server.JobStatus
		o.resp, st, o.err = m.icl.Run(ctx, ev.Run, 0)
		end(jobSpans(st))
		o.hit, o.job = st.CacheHit, st.ID
	}
	o.lat = time.Since(due)
	if o.err == nil && o.hit {
		o.err = errors.New("cold interactive run was served from the cache")
	}
	return o
}

// check compares every interactive response with in-process execution and
// every bulk batch with a local BatchRequest.Execute.
func (m *mixWL) check(ctx context.Context) []string {
	var bad []string
	var runs []int
	for i, ev := range m.events {
		if ev.Run != nil && m.out[i].err == nil {
			runs = append(runs, i)
		}
	}
	want, errs := executeAll(ctx, m.nproc, len(runs), func(k int) hetwire.RunRequest { return *m.events[runs[k]].Run })
	for k, i := range runs {
		if errs[k] != nil {
			bad = append(bad, fmt.Sprintf("interactive request %d in-process: %v", i, errs[k]))
		} else if got := responseHash(m.out[i].resp); got != want[k] {
			bad = append(bad, fmt.Sprintf("interactive request %d (%s): served hash %s, in-process %s", i, m.events[i].Path, got, want[k]))
		}
	}
	for i, ev := range m.events {
		if ev.Batch == nil || m.out[i].err != nil {
			continue
		}
		local := *ev.Batch
		local.Parallelism = m.nproc
		resp, err := local.ExecuteContext(ctx)
		if err != nil {
			bad = append(bad, fmt.Sprintf("bulk batch %d local execute: %v", i, err))
			continue
		}
		for j, sc := range resp.Scenarios {
			got, err := wire.DecodeRunResult(m.out[i].frame[j])
			if err != nil || responseHash(got) != responseHash(sc.Response) {
				bad = append(bad, fmt.Sprintf("bulk batch %d scenario %d differs from the local BatchRequest.Execute", i, j))
			}
		}
	}
	return bad
}

func (m *mixWL) close() error {
	if m.d == nil {
		return nil
	}
	err := m.d.stop()
	for _, tr := range []*http.Transport{m.itr, m.btr} {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	m.d = nil
	return err
}

type mixCounters struct {
	server       serverCounters // interactive transport counts included
	bulkAttempts float64
	usage        map[string]tenantUsage
	cluster      clusterCounters
}

func (m *mixWL) readCounters(ctx context.Context) (mixCounters, error) {
	var c mixCounters
	var err error
	if c.server, err = readServerCounters(ctx, m.d, &m.icnt); err != nil {
		return c, err
	}
	c.bulkAttempts = float64(m.bcnt.attempts.Load())
	if c.usage, err = tenantsUsage(ctx, m.icl); err != nil {
		return c, err
	}
	c.cluster, err = clusterStats(ctx, m.d)
	return c, err
}

func (m *mixWL) layerValues(ctx context.Context, w *window, before, after mixCounters, tr *tracer) {
	var wireN, asyncN, bulkN float64
	for _, ev := range m.events {
		switch {
		case ev.Batch != nil:
			bulkN++
		case ev.Path == pathWire:
			wireN++
		default:
			asyncN++
		}
	}
	serverLayerValues(w, before.server, after.server, wireN+asyncN, daemonWorkers)
	// The bulk tenant's transport: one submit and one stream per batch.
	w.vals["client.retries"] += (after.bulkAttempts - before.bulkAttempts) - 2*bulkN
	w.vals["obs.flight_events_per_req"] = ratio(after.server.flightSeq-before.server.flightSeq, wireN+asyncN+bulkN)
	w.vals["server.idem_requests"] = wireN + asyncN
	w.vals["client.await_polls_per_job"] = ratio(after.server.polls-before.server.polls, asyncN)

	simCPU := func(name string) float64 {
		return float64(after.usage[name].SimCPU - before.usage[name].SimCPU)
	}
	w.vals["tenant.interactive.sim_cpu_share"] = ratio(simCPU(tenantInteractive), simCPU(tenantInteractive)+simCPU(tenantBulk))
	good := promSum(after.server.prom, "hetwired_slo_requests_total", `tenant="interactive"`, `verdict="good"`) -
		promSum(before.server.prom, "hetwired_slo_requests_total", `tenant="interactive"`, `verdict="good"`)
	badN := promSum(after.server.prom, "hetwired_slo_requests_total", `tenant="interactive"`, `verdict="bad"`) -
		promSum(before.server.prom, "hetwired_slo_requests_total", `tenant="interactive"`, `verdict="bad"`)
	w.vals["tenant.slo_bad_server"] = badN
	w.vals["tenant.slo_total_server"] = good + badN
	w.vals["tenant.slo_bad_ratio_server"] = ratio(badN, good+badN)
	cb, ca := before.cluster, after.cluster
	w.vals["cluster.leases_issued"] = float64(ca.LeasesIssued - cb.LeasesIssued)
	w.vals["cluster.leases_expired"] = float64(ca.LeasesExpired - cb.LeasesExpired)
	w.vals["cluster.redispatched"] = float64(ca.ScenariosRedispatched - cb.ScenariosRedispatched)
	w.vals["cluster.uploads_accepted"] = float64(ca.UploadsAccepted - cb.UploadsAccepted)
	w.vals["cluster.federated_hits"] = float64(ca.FederatedHits - cb.FederatedHits)
	if tr == nil {
		return
	}
	w.vals["client.runwire_us"] = 1e3 * mean(tr.durations("client.RunWire"))
	w.vals["client.submit_us"] = 1e3 * mean(tr.durations("client.SubmitBatch"))
	jobs, err := jobListing(ctx, m.icl, w.t0)
	if err != nil {
		return
	}
	spanMeans(w, jobs)
	var iq, bq, nodeSim, cacheCheck, idle []float64
	for _, j := range jobs {
		switch j.Tenant {
		case tenantInteractive:
			iq = append(iq, j.QueueMS)
		case tenantBulk:
			bq = append(bq, j.QueueMS)
			var sim, cc float64
			for _, sp := range j.Spans {
				switch sp.Name {
				case "node_sim":
					sim += sp.DurMS
				case "node_cache_check":
					cc += sp.DurMS
				}
			}
			nodeSim = append(nodeSim, sim)
			cacheCheck = append(cacheCheck, cc)
			idle = append(idle, j.WallMS-sim)
		}
	}
	w.vals["tenant.interactive.queue_wait_p95_ms"] = quantile(iq, 0.95)
	w.vals["tenant.bulk.queue_wait_p95_ms"] = quantile(bq, 0.95)
	w.vals["cluster.node_sim_ms"] = mean(nodeSim)
	w.vals["cluster.node_cache_check_ms"] = mean(cacheCheck)
	w.vals["cluster.lease_idle_ms"] = mean(idle)
}
