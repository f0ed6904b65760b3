package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetwire/internal/cluster"
	"hetwire/internal/stats"
	"hetwire/internal/tenant"
)

// latency histogram geometry: 1ms buckets up to 50ms, overflow beyond.
// Synchronous simulation endpoints overflow by design — their mean is still
// exact via sum/count — while the metadata and polling endpoints resolve.
const (
	latBuckets     = 50
	latBucketWidth = 1000 // microseconds
)

// Cardinality bounds: label sets fed by external input are capped, with
// overflow folded into a catch-all, so a hostile or buggy client cannot grow
// the /metrics payload without bound.
const (
	// maxEndpoints caps distinct route labels. Routes are normalized patterns
	// (job IDs collapsed, queries stripped), so the cap is never reached by
	// the served API; it is a backstop for future route additions.
	maxEndpoints = 32
	// maxRejectReasons caps distinct rejection-reason labels; reasons come
	// from the bounded hetwire.Reason* code set plus the daemon's own
	// backpressure classes.
	maxRejectReasons = 16
	// maxTenantLabels caps distinct tenant labels in the hetwired_tenant_*
	// series; tenants past the cap (name order) are summed into the overflow
	// label. The registry itself allows up to tenant.MaxTenants configured
	// tenants, so a large fleet folds rather than bloating every scrape.
	maxTenantLabels = 64
	// overflowLabel absorbs observations past a cardinality cap.
	overflowLabel = "other"
)

// Metrics aggregates the daemon's observability counters. All mutation is
// either atomic or under mu; rendering takes a consistent-enough snapshot
// for Prometheus scraping (gauges may lag each other by a scrape).
type Metrics struct {
	start time.Time

	// jobsPanicked counts jobs that died to a contained worker panic (a
	// subset of the failed jobs); workersRespawned counts the replacement
	// workers started afterwards.
	jobsPanicked     atomic.Uint64
	workersRespawned atomic.Uint64

	// jobWallNanos/jobWallCount accumulate terminal jobs' wall time; their
	// ratio is the observed mean job latency that sizes Retry-After hints.
	jobWallNanos atomic.Int64
	jobWallCount atomic.Uint64

	workers int
	// workerBusyNanos accumulates per-worker busy time (index = worker slot;
	// a respawned worker keeps its predecessor's slot), exposing skew between
	// workers that the pool-level gauge averages away.
	workerBusyNanos []atomic.Int64

	// instructions is the total simulated instruction count (cache hits do
	// not re-simulate and therefore do not count).
	instructions atomic.Uint64
	// simBusy accumulates nanoseconds spent inside simulation calls.
	simBusy atomic.Int64

	// buildVersion/buildGo label hetwired_build_info; set once before serving
	// (SetBuildInfo), empty means the line is omitted.
	buildVersion string
	buildGo      string

	// clusterStats, when set (coordinator mode), supplies the cluster
	// coordinator's counters at render time; nil omits the cluster section
	// entirely, keeping non-coordinator expositions unchanged.
	clusterStats func() cluster.Stats

	// tenantStats supplies the tenant ledgers at render time (in open mode,
	// the anonymous tenant's alone): the job totals and the running and
	// busy-worker gauges are their sums. perTenant (a -tenants file was
	// configured) also renders each ledger as the hetwired_tenant_* section,
	// which open-mode expositions leave out.
	tenantStats func() []tenant.Snapshot
	perTenant   bool
	// schedStats, when set, supplies the fair queue's snapshot at render
	// time (per-lane depths); nil omits the hetwired_sched_* section.
	schedStats func() SchedSnapshot
	// loadShedTotal counts load-shed engagements by the overload watchdog.
	loadShedTotal atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	// rejected counts submissions bounced before queueing, by machine-
	// readable reason (hetwire.Reason* validation codes, queue_full,
	// draining, bad_json).
	rejected map[string]uint64
	// phases holds one latency histogram per job phase (queue_wait, sim_run,
	// ...); keys come from the daemon's fixed span-name set.
	phases map[string]*stats.Histogram
	// tenantSLO holds the per-tenant SLO ledgers (good/bad counters, latency
	// histograms, burn-rate minute buckets) for tenants with a configured
	// latency objective. Bounded by maxTenantLabels with overflow folding,
	// like every tenant-labelled series.
	tenantSLO map[string]*sloState
}

// sloState is one tenant's SLO ledger. good/bad are lifetime counters; the
// minute-bucket ring backs the multi-window burn-rate gauges (5m and 1h fit
// in 60 slots).
type sloState struct {
	targetPct float64
	good, bad uint64
	e2e       *stats.Histogram // end-to-end wall, microseconds
	qwait     *stats.Histogram // queue wait, microseconds
	buckets   [60]sloBucket
}

// sloBucket is one minute of good/bad counts; minute is the absolute Unix
// minute the slot currently holds, so stale laps self-invalidate.
type sloBucket struct {
	minute    int64
	good, bad uint64
}

type endpointMetrics struct {
	requests uint64
	statuses map[int]uint64
	latency  *stats.Histogram // microseconds
}

// NewMetrics creates the registry for a pool of the given size.
func NewMetrics(workers int, now time.Time) *Metrics {
	return &Metrics{
		start:           now,
		workers:         workers,
		workerBusyNanos: make([]atomic.Int64, workers),
		endpoints:       make(map[string]*endpointMetrics),
		rejected:        make(map[string]uint64),
		phases:          make(map[string]*stats.Histogram),
		tenantSLO:       make(map[string]*sloState),
	}
}

// ObserveSLO folds one terminal job into its tenant's SLO ledger: the
// good/bad verdict, the end-to-end and queue-wait latency samples, and the
// minute bucket backing the burn-rate windows. Tenants past the label cap
// fold into the overflow label.
func (m *Metrics) ObserveSLO(tenantName string, targetPct float64, good bool, e2e, queueWait time.Duration, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tenantSLO[tenantName]
	if !ok && len(m.tenantSLO) >= maxTenantLabels {
		tenantName = overflowLabel
		st, ok = m.tenantSLO[tenantName]
	}
	if !ok {
		st = &sloState{
			targetPct: targetPct,
			e2e:       stats.NewHistogram(latBuckets, latBucketWidth),
			qwait:     stats.NewHistogram(latBuckets, latBucketWidth),
		}
		m.tenantSLO[tenantName] = st
	}
	st.targetPct = targetPct
	minute := now.Unix() / 60
	b := &st.buckets[minute%60]
	if b.minute != minute {
		*b = sloBucket{minute: minute}
	}
	if good {
		st.good++
		b.good++
	} else {
		st.bad++
		b.bad++
	}
	if e2e < 0 {
		e2e = 0
	}
	if queueWait < 0 {
		queueWait = 0
	}
	st.e2e.Observe(uint64(e2e / time.Microsecond))
	st.qwait.Observe(uint64(queueWait / time.Microsecond))
}

// SetBuildInfo records the version labels for hetwired_build_info. Call once
// before serving; the zero state omits the metric, keeping directly
// constructed registries (tests) deterministic.
func (m *Metrics) SetBuildInfo(version, goVersion string) {
	m.buildVersion, m.buildGo = version, goVersion
}

// ObserveRejection counts one bounced submission by machine-readable reason.
// The reason label set is capped; unexpected reasons past the cap fold into
// the overflow label instead of growing the exposition.
func (m *Metrics) ObserveRejection(reason string) {
	if reason == "" {
		reason = overflowLabel
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rejected[reason]; !ok && len(m.rejected) >= maxRejectReasons {
		reason = overflowLabel
	}
	m.rejected[reason]++
}

// ObservePhase folds one job-phase duration into the phase histogram (same
// microsecond geometry as the HTTP latency histograms).
func (m *Metrics) ObservePhase(phase string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.phases[phase]
	if !ok {
		h = stats.NewHistogram(latBuckets, latBucketWidth)
		m.phases[phase] = h
	}
	h.Observe(uint64(d / time.Microsecond))
}

// AddWorkerBusy accrues busy time for one worker slot.
func (m *Metrics) AddWorkerBusy(worker int, d time.Duration) {
	if worker >= 0 && worker < len(m.workerBusyNanos) {
		m.workerBusyNanos[worker].Add(int64(d))
	}
}

// ObserveJobWall folds one terminal job's wall time into the latency
// estimate behind Retry-After.
func (m *Metrics) ObserveJobWall(d time.Duration) {
	m.jobWallNanos.Add(int64(d))
	m.jobWallCount.Add(1)
}

// ObservedJobs reports how many terminal jobs have contributed wall-time
// samples; zero means MeanJobLatency has nothing real to report.
func (m *Metrics) ObservedJobs() uint64 { return m.jobWallCount.Load() }

// MeanJobLatency is the observed mean wall time of terminal jobs, or the
// fallback when no job has finished yet.
func (m *Metrics) MeanJobLatency(fallback time.Duration) time.Duration {
	n := m.jobWallCount.Load()
	if n == 0 {
		return fallback
	}
	return time.Duration(uint64(m.jobWallNanos.Load()) / n)
}

// JobsPanicked exposes the panic counter (tests).
func (m *Metrics) JobsPanicked() uint64 { return m.jobsPanicked.Load() }

// WorkersRespawned exposes the respawn counter (tests).
func (m *Metrics) WorkersRespawned() uint64 { return m.workersRespawned.Load() }

// ObserveRequest records one served HTTP request for the route pattern. The
// route label set is capped at maxEndpoints; routes past the cap fold into
// the overflow label so unmatched-path traffic cannot grow the exposition.
func (m *Metrics) ObserveRequest(route string, status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep, ok := m.endpoints[route]
	if !ok && len(m.endpoints) >= maxEndpoints {
		route = overflowLabel
		ep, ok = m.endpoints[route]
	}
	if !ok {
		ep = &endpointMetrics{
			statuses: make(map[int]uint64),
			latency:  stats.NewHistogram(latBuckets, latBucketWidth),
		}
		m.endpoints[route] = ep
	}
	ep.requests++
	ep.statuses[status]++
	ep.latency.Observe(uint64(elapsed / time.Microsecond))
}

// render writes the Prometheus text exposition. Gauges that live outside
// the registry (queue depth, cache counters) are passed in by the server.
func (m *Metrics) render(w io.Writer, queueDepth int, draining bool, cs CacheStats, now time.Time) {
	up := 1.0
	if draining {
		up = 0
	}
	writeGauge(w, "hetwired_up", "1 while serving, 0 while draining.", up)
	writeGauge(w, "hetwired_uptime_seconds", "Seconds since the daemon started.", now.Sub(m.start).Seconds())

	var snaps []tenant.Snapshot
	if m.tenantStats != nil {
		snaps = m.tenantStats()
	}
	all := sumSnapshots("", snaps)
	fmt.Fprintf(w, "# HELP hetwired_jobs_total Jobs by terminal state.\n# TYPE hetwired_jobs_total counter\n")
	fmt.Fprintf(w, "hetwired_jobs_total{state=\"done\"} %d\n", all.Done)
	fmt.Fprintf(w, "hetwired_jobs_total{state=\"failed\"} %d\n", all.Failed)
	fmt.Fprintf(w, "hetwired_jobs_total{state=\"cancelled\"} %d\n", all.Cancelled)
	writeCounter(w, "hetwired_jobs_submitted_total", "Submissions accepted: jobs queued, and runs answered from the cache at submission.", all.Submitted)
	writeCounter(w, "hetwired_jobs_panicked_total", "Jobs failed by a contained worker panic.", m.jobsPanicked.Load())
	m.renderRejections(w)
	writeCounter(w, "hetwired_workers_respawned_total", "Workers respawned after a panic escaped a job.", m.workersRespawned.Load())
	writeCounter(w, "hetwired_load_shed_engaged_total", "Times the overload watchdog engaged load-shed mode.", m.loadShedTotal.Load())

	fmt.Fprintf(w, "# HELP hetwired_jobs Jobs currently in a live state.\n# TYPE hetwired_jobs gauge\n")
	fmt.Fprintf(w, "hetwired_jobs{state=\"queued\"} %d\n", queueDepth)
	running := all.InFlight
	fmt.Fprintf(w, "hetwired_jobs{state=\"running\"} %d\n", running)

	writeGauge(w, "hetwired_queue_depth", "Jobs waiting in the weighted-fair queue.", float64(queueDepth))
	writeGauge(w, "hetwired_workers", "Size of the worker pool.", float64(m.workers))
	writeGauge(w, "hetwired_workers_busy", "Workers currently executing a job.", float64(running))
	if m.workers > 0 {
		writeGauge(w, "hetwired_worker_utilization", "Fraction of workers busy.", float64(running)/float64(m.workers))
	}
	if len(m.workerBusyNanos) > 0 {
		fmt.Fprintf(w, "# HELP hetwired_worker_busy_seconds_total Cumulative busy time per worker slot.\n# TYPE hetwired_worker_busy_seconds_total counter\n")
		for i := range m.workerBusyNanos {
			fmt.Fprintf(w, "hetwired_worker_busy_seconds_total{worker=\"%d\"} %g\n",
				i, float64(m.workerBusyNanos[i].Load())/float64(time.Second))
		}
	}

	writeCounter(w, "hetwired_cache_hits_total", "Result-cache hits served from stored entries.", cs.Hits)
	writeCounter(w, "hetwired_cache_coalesced_total", "Result-cache misses answered by another job's computation instead of a fresh simulation.", cs.Coalesced)
	writeCounter(w, "hetwired_cache_misses_total", "Admitted scenarios not found in the result cache.", cs.Misses)
	writeCounter(w, "hetwired_cache_evictions_total", "Entries evicted to stay within the byte budget.", cs.Evictions)
	writeCounter(w, "hetwired_cache_corrupt_dropped_total", "Entries dropped on checksum mismatch and recomputed.", cs.Corrupt)
	writeGauge(w, "hetwired_cache_entries", "Entries resident in the result cache.", float64(cs.Entries))
	writeGauge(w, "hetwired_cache_bytes", "Bytes resident in the result cache.", float64(cs.Bytes))
	writeGauge(w, "hetwired_cache_budget_bytes", "Byte budget of the result cache.", float64(cs.Budget))
	writeGauge(w, "hetwired_cache_hit_ratio", "Lifetime hit ratio including coalesced requests.", cs.HitRatio())

	instr := m.instructions.Load()
	writeCounter(w, "hetwired_simulated_instructions_total", "Instructions simulated (cache hits excluded).", instr)
	if busy := m.simBusy.Load(); busy > 0 {
		writeGauge(w, "hetwired_simulated_instructions_per_second",
			"Lifetime simulation throughput over busy time.",
			float64(instr)/(float64(busy)/float64(time.Second)))
	}

	if m.buildVersion != "" || m.buildGo != "" {
		fmt.Fprintf(w, "# HELP hetwired_build_info Build metadata as labels; the value is always 1.\n# TYPE hetwired_build_info gauge\n")
		fmt.Fprintf(w, "hetwired_build_info{version=%q,go=%q} 1\n", m.buildVersion, m.buildGo)
	}

	m.renderCluster(w)
	m.renderSched(w)
	if m.perTenant {
		m.renderTenants(w, snaps)
	}
	m.renderSLO(w, now)
	m.renderPhases(w)
	m.renderEndpoints(w)
}

// SetClusterStats wires the coordinator's counter snapshot into the
// exposition. Call once before serving (coordinator mode only).
func (m *Metrics) SetClusterStats(fn func() cluster.Stats) {
	m.clusterStats = fn
}

// SetTenantStats wires the tenant registry's snapshot into the exposition;
// perTenant renders each tenant's series too (tenancy-configured mode).
// Call once before serving.
func (m *Metrics) SetTenantStats(fn func() []tenant.Snapshot, perTenant bool) {
	m.tenantStats, m.perTenant = fn, perTenant
}

// SetSchedStats wires the fair queue's snapshot into the exposition. Call
// once before serving.
func (m *Metrics) SetSchedStats(fn func() SchedSnapshot) {
	m.schedStats = fn
}

// renderSched emits the scheduler gauges: queued jobs per lane plus the
// bulk-slot occupancy, from the fair queue's own snapshot.
func (m *Metrics) renderSched(w io.Writer) {
	if m.schedStats == nil {
		return
	}
	snap := m.schedStats()
	lanes := make([]string, 0, len(snap.LaneDepth))
	for lane := range snap.LaneDepth {
		lanes = append(lanes, lane)
	}
	sort.Strings(lanes)
	fmt.Fprintf(w, "# HELP hetwired_sched_lane_depth Jobs queued per scheduler lane.\n# TYPE hetwired_sched_lane_depth gauge\n")
	for _, lane := range lanes {
		fmt.Fprintf(w, "hetwired_sched_lane_depth{lane=%q} %d\n", lane, snap.LaneDepth[lane])
	}
	fmt.Fprintf(w, "# HELP hetwired_sched_bulk_running Bulk-lane jobs currently dispatched, and the cap that reserves a worker for the interactive lane.\n# TYPE hetwired_sched_bulk_running gauge\n")
	fmt.Fprintf(w, "hetwired_sched_bulk_running %d\n", snap.BulkRunning)
	fmt.Fprintf(w, "# HELP hetwired_sched_bulk_cap Maximum bulk-lane jobs dispatched concurrently.\n# TYPE hetwired_sched_bulk_cap gauge\n")
	fmt.Fprintf(w, "hetwired_sched_bulk_cap %d\n", snap.BulkCap)
}

// sloWindowBad sums a window of minute buckets ending at nowMinute and
// returns the bad fraction plus whether any sample fell in the window.
func (st *sloState) sloWindowBad(nowMinute int64, minutes int64) (float64, bool) {
	var good, bad uint64
	for i := range st.buckets {
		b := &st.buckets[i]
		if b.minute > nowMinute-minutes && b.minute <= nowMinute {
			good += b.good
			bad += b.bad
		}
	}
	total := good + bad
	if total == 0 {
		return 0, false
	}
	return float64(bad) / float64(total), true
}

// renderSLO emits the per-tenant SLO series: the objective, lifetime
// good/bad verdict counters, multi-window burn rates, and the end-to-end and
// queue-wait latency histograms. Burn rate is the observed bad fraction over
// the window divided by the error budget (1 - target); 1.0 means the tenant
// is consuming its budget exactly at the allowed rate, >1 means faster.
func (m *Metrics) renderSLO(w io.Writer, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tenantSLO) == 0 {
		return
	}
	names := make([]string, 0, len(m.tenantSLO))
	for n := range m.tenantSLO {
		names = append(names, n)
	}
	sort.Strings(names)
	nowMinute := now.Unix() / 60

	fmt.Fprintf(w, "# HELP hetwired_slo_target_pct Configured latency-objective target percentage per tenant.\n# TYPE hetwired_slo_target_pct gauge\n")
	for _, n := range names {
		fmt.Fprintf(w, "hetwired_slo_target_pct{tenant=%q} %g\n", n, m.tenantSLO[n].targetPct)
	}
	fmt.Fprintf(w, "# HELP hetwired_slo_requests_total Terminal jobs per tenant by SLO verdict.\n# TYPE hetwired_slo_requests_total counter\n")
	for _, n := range names {
		st := m.tenantSLO[n]
		fmt.Fprintf(w, "hetwired_slo_requests_total{tenant=%q,verdict=\"good\"} %d\n", n, st.good)
		fmt.Fprintf(w, "hetwired_slo_requests_total{tenant=%q,verdict=\"bad\"} %d\n", n, st.bad)
	}
	fmt.Fprintf(w, "# HELP hetwired_slo_burn_rate Error-budget burn rate per tenant and window (1.0 = budget consumed exactly at the allowed rate).\n# TYPE hetwired_slo_burn_rate gauge\n")
	for _, n := range names {
		st := m.tenantSLO[n]
		budget := 1 - st.targetPct/100
		for _, win := range []struct {
			label   string
			minutes int64
		}{{"5m", 5}, {"1h", 60}} {
			badFrac, ok := st.sloWindowBad(nowMinute, win.minutes)
			rate := 0.0
			if ok && budget > 0 {
				rate = badFrac / budget
			}
			fmt.Fprintf(w, "hetwired_slo_burn_rate{tenant=%q,window=%q} %g\n", n, win.label, rate)
		}
	}

	for _, series := range []struct {
		name, help string
		hist       func(*sloState) *stats.Histogram
	}{
		{"hetwired_tenant_e2e_latency_seconds", "End-to-end job latency (queue wait included) per SLO tenant.",
			func(st *sloState) *stats.Histogram { return st.e2e }},
		{"hetwired_tenant_queue_wait_seconds", "Queue wait per SLO tenant.",
			func(st *sloState) *stats.Histogram { return st.qwait }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", series.name, series.help, series.name)
		for _, n := range names {
			writeHistogram(w, series.name, "tenant", n, series.hist(m.tenantSLO[n]))
		}
	}
}

// sumSnapshots folds tenant ledgers into one snapshot under name.
func sumSnapshots(name string, snaps []tenant.Snapshot) tenant.Snapshot {
	sum := tenant.Snapshot{Name: name, Rejected: make(map[string]uint64)}
	for _, sn := range snaps {
		sum.SimCPU += sn.SimCPU
		sum.Queued += sn.Queued
		sum.InFlight += sn.InFlight
		sum.CacheBytes += sn.CacheBytes
		sum.Submitted += sn.Submitted
		sum.Done += sn.Done
		sum.Failed += sn.Failed
		sum.Cancelled += sn.Cancelled
		for r, n := range sn.Rejected {
			sum.Rejected[r] += n
		}
	}
	return sum
}

// renderTenants emits the hetwired_tenant_* series from the registry
// snapshot. Snapshots arrive in name order; tenants past maxTenantLabels
// are summed into the overflow label so the exposition stays bounded no
// matter how many tenants are configured.
func (m *Metrics) renderTenants(w io.Writer, snaps []tenant.Snapshot) {
	if len(snaps) > maxTenantLabels {
		head := snaps[:maxTenantLabels-1]
		over := sumSnapshots(overflowLabel, snaps[maxTenantLabels-1:])
		snaps = append(append(make([]tenant.Snapshot, 0, maxTenantLabels), head...), over)
	}

	fmt.Fprintf(w, "# HELP hetwired_tenant_weight Configured scheduler weight per tenant.\n# TYPE hetwired_tenant_weight gauge\n")
	for _, sn := range snaps {
		if sn.Name != overflowLabel {
			fmt.Fprintf(w, "hetwired_tenant_weight{tenant=%q} %d\n", sn.Name, sn.Weight)
		}
	}
	fmt.Fprintf(w, "# HELP hetwired_tenant_sim_cpu_seconds_total Simulation CPU seconds billed per tenant.\n# TYPE hetwired_tenant_sim_cpu_seconds_total counter\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "hetwired_tenant_sim_cpu_seconds_total{tenant=%q} %g\n", sn.Name, sn.SimCPU.Seconds())
	}
	fmt.Fprintf(w, "# HELP hetwired_tenant_jobs Live jobs per tenant by state.\n# TYPE hetwired_tenant_jobs gauge\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "hetwired_tenant_jobs{tenant=%q,state=\"queued\"} %d\n", sn.Name, sn.Queued)
		fmt.Fprintf(w, "hetwired_tenant_jobs{tenant=%q,state=\"running\"} %d\n", sn.Name, sn.InFlight)
	}
	fmt.Fprintf(w, "# HELP hetwired_tenant_jobs_submitted_total Jobs accepted into the queue per tenant.\n# TYPE hetwired_tenant_jobs_submitted_total counter\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "hetwired_tenant_jobs_submitted_total{tenant=%q} %d\n", sn.Name, sn.Submitted)
	}
	fmt.Fprintf(w, "# HELP hetwired_tenant_jobs_total Terminal jobs per tenant by state.\n# TYPE hetwired_tenant_jobs_total counter\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "hetwired_tenant_jobs_total{tenant=%q,state=\"done\"} %d\n", sn.Name, sn.Done)
		fmt.Fprintf(w, "hetwired_tenant_jobs_total{tenant=%q,state=\"failed\"} %d\n", sn.Name, sn.Failed)
		fmt.Fprintf(w, "hetwired_tenant_jobs_total{tenant=%q,state=\"cancelled\"} %d\n", sn.Name, sn.Cancelled)
	}
	fmt.Fprintf(w, "# HELP hetwired_tenant_cache_bytes_inserted_total Result-cache bytes inserted on behalf of the tenant.\n# TYPE hetwired_tenant_cache_bytes_inserted_total counter\n")
	for _, sn := range snaps {
		fmt.Fprintf(w, "hetwired_tenant_cache_bytes_inserted_total{tenant=%q} %d\n", sn.Name, sn.CacheBytes)
	}
	fmt.Fprintf(w, "# HELP hetwired_tenant_rejected_total Submissions rejected per tenant, by machine-readable reason.\n# TYPE hetwired_tenant_rejected_total counter\n")
	for _, sn := range snaps {
		reasons := make([]string, 0, len(sn.Rejected))
		for r := range sn.Rejected {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(w, "hetwired_tenant_rejected_total{tenant=%q,reason=%q} %d\n", sn.Name, r, sn.Rejected[r])
		}
	}
}

// renderRejections emits the per-reason rejection counters. The total line is
// always present (even at zero) so dashboards keyed on the metric name keep
// working; per-reason labels appear once a reason has been observed.
func (m *Metrics) renderRejections(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP hetwired_jobs_rejected_total Submissions rejected before queueing, by machine-readable reason.\n# TYPE hetwired_jobs_rejected_total counter\n")
	reasons := make([]string, 0, len(m.rejected))
	for r := range m.rejected {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "hetwired_jobs_rejected_total{reason=%q} %d\n", r, m.rejected[r])
	}
}

// renderPhases emits the per-phase job latency histograms (queue_wait,
// cache_lookup, sim_run, result_encode).
func (m *Metrics) renderPhases(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.phases) == 0 {
		return
	}
	names := make([]string, 0, len(m.phases))
	for n := range m.phases {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP hetwired_job_phase_duration_seconds Time spent per job phase.\n# TYPE hetwired_job_phase_duration_seconds histogram\n")
	for _, n := range names {
		writeHistogram(w, "hetwired_job_phase_duration_seconds", "phase", n, m.phases[n])
	}
}

// renderEndpoints emits per-route request counters and latency histograms
// built on internal/stats histograms.
func (m *Metrics) renderEndpoints(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	routes := make([]string, 0, len(m.endpoints))
	for r := range m.endpoints {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	fmt.Fprintf(w, "# HELP hetwired_http_requests_total Requests served, by route and status.\n# TYPE hetwired_http_requests_total counter\n")
	for _, r := range routes {
		ep := m.endpoints[r]
		codes := make([]int, 0, len(ep.statuses))
		for c := range ep.statuses {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "hetwired_http_requests_total{route=%q,code=\"%d\"} %d\n", r, c, ep.statuses[c])
		}
	}

	fmt.Fprintf(w, "# HELP hetwired_http_request_duration_seconds Request latency, by route.\n# TYPE hetwired_http_request_duration_seconds histogram\n")
	for _, r := range routes {
		writeHistogram(w, "hetwired_http_request_duration_seconds", "route", r, m.endpoints[r].latency)
	}
}

// writeCounter emits one unlabelled counter with its HELP and TYPE lines.
func writeCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// writeGauge emits one unlabelled gauge with its HELP and TYPE lines.
func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// writeHistogram emits one labelled series of a microsecond histogram in
// seconds: the cumulative buckets, then sum and count. The caller writes the
// HELP and TYPE lines once per metric name.
func writeHistogram(w io.Writer, name, label, value string, h *stats.Histogram) {
	for _, b := range h.AppendCumulative(nil) {
		if b.Inf {
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, b.Count)
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, float64(b.UpperBound+1)/1e6, b.Count)
	}
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, float64(h.Sum)/1e6)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.Count)
}
