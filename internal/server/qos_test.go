package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/tenant"
)

// qosTenants is the two-saturating-tenants policy most QoS tests use:
// alpha is promised 3x beta's sim-CPU share.
func qosTenants() *tenant.Config {
	return &tenant.Config{Tenants: []tenant.Spec{
		{Name: "alpha", Key: "key-alpha", Weight: 3},
		{Name: "beta", Key: "key-beta", Weight: 1},
	}}
}

// postAs is postJSON with a tenant key and optional Idempotency-Key.
func postAs(t *testing.T, url, tenantKey, idemKey string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantKey != "" {
		req.Header.Set(TenantHeader, tenantKey)
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

// --- scheduler-level fairness: deterministic dispatch and charge shares ---

// TestFairQueueWeightedShares drives the fair queue directly with two
// always-backlogged tenants at weights 3:1 and equal per-job CPU charges.
// Both the dispatch share and the charged sim-CPU share must track the
// weight ratio within the ±10 points the design promises. This is the
// deterministic core of the fairness property: no wall clocks, no workers —
// run-to-completion totals at the HTTP layer cannot distinguish schedules,
// so fairness is asserted where it is decided.
func TestFairQueueWeightedShares(t *testing.T) {
	reg := tenant.NewRegistry(qosTenants())
	alpha, ok := reg.Lookup("key-alpha")
	if !ok {
		t.Fatal("alpha not registered")
	}
	beta, ok := reg.Lookup("key-beta")
	if !ok {
		t.Fatal("beta not registered")
	}

	q := newFairQueue(64, 2, false, nil)
	stub := func(tn *tenant.Tenant) *Job { return &Job{tenant: tn, lane: laneBulk} }
	for _, tn := range []*tenant.Tenant{alpha, beta} {
		if err := q.push(stub(tn)); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 400
	const perJob = 10 * time.Millisecond
	dispatches := map[string]int{}
	charged := map[string]time.Duration{}
	for i := 0; i < rounds; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed mid-test")
		}
		dispatches[j.tenant.Name()]++
		charged[j.tenant.Name()] += perJob
		q.charge(j, perJob)
		q.finished(j)
		// Refill so the tenant stays backlogged: fairness is only defined
		// while both tenants are saturating.
		if err := q.push(stub(j.tenant)); err != nil {
			t.Fatal(err)
		}
	}

	dispatchShare := float64(dispatches["alpha"]) / float64(rounds)
	cpuShare := charged["alpha"].Seconds() / (charged["alpha"] + charged["beta"]).Seconds()
	if dispatchShare < 0.65 || dispatchShare > 0.85 {
		t.Errorf("alpha dispatch share = %.3f (alpha=%d beta=%d), want 0.75 +/- 0.10",
			dispatchShare, dispatches["alpha"], dispatches["beta"])
	}
	if cpuShare < 0.65 || cpuShare > 0.85 {
		t.Errorf("alpha sim-CPU share = %.3f, want 0.75 +/- 0.10", cpuShare)
	}
	if dispatches["beta"] == 0 {
		t.Error("beta starved: zero dispatches under weighted-fair scheduling")
	}
	// Drain the two refill jobs so Queued gauges return to zero.
	q.close()
	for {
		j, ok := q.pop()
		if !ok {
			break
		}
		q.finished(j)
	}
}

// TestFairSchedulerEndToEndShares saturates a one-worker daemon from two
// tenants at weights 3:1 and snapshots per-tenant sim-CPU while BOTH are
// still backlogged. Completed totals converge to submitted work no matter
// the schedule, so the share is only meaningful mid-backlog.
func TestFairSchedulerEndToEndShares(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 128, Tenants: qosTenants()})
	const perTenant = 24
	idx := 0
	for i := 0; i < perTenant; i++ {
		for _, key := range []string{"key-alpha", "key-beta"} {
			// Distinct budgets defeat the result cache: a cache hit carries
			// no sim span, is charged no CPU, and would skew the measurement.
			resp, raw := postAs(t, ts.URL+"/v1/jobs", key, "", map[string]any{
				"benchmark": "gzip", "n": 150000 + idx,
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d as %s = %d: %s", idx, key, resp.StatusCode, raw)
			}
			idx++
		}
	}

	alpha, _ := s.tenants.Lookup("key-alpha")
	beta, _ := s.tenants.Lookup("key-beta")
	deadline := time.Now().Add(30 * time.Second)
	for {
		a, b := alpha.Snapshot(), beta.Snapshot()
		done := a.Done + b.Done
		if done >= 16 && a.Queued > 0 && b.Queued > 0 {
			total := a.SimCPU + b.SimCPU
			if total <= 0 {
				t.Fatalf("no sim-CPU attributed after %d completions", done)
			}
			share := a.SimCPU.Seconds() / total.Seconds()
			if share < 0.60 || share > 0.90 {
				t.Errorf("mid-backlog alpha sim-CPU share = %.3f (alpha=%s beta=%s done=%d), want 0.75 +/- 0.15",
					share, a.SimCPU, b.SimCPU, done)
			}
			break
		}
		if a.Queued == 0 || b.Queued == 0 {
			// The backlog drained before the sampling threshold: the workload
			// was too fast for a mid-flight measurement on this machine. The
			// deterministic share property is covered by
			// TestFairQueueWeightedShares; here just require completion.
			t.Logf("backlog drained early (done=%d); skipping share assertion", done)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenants never reached sampling threshold: alpha=%+v beta=%+v", a, b)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Drain and verify exact per-tenant terminal accounting.
	for _, tn := range []*tenant.Tenant{alpha, beta} {
		waitFor(t, 30*time.Second, func() bool { return tn.Snapshot().Done == perTenant },
			fmt.Sprintf("tenant %s: all %d jobs done", tn.Name(), perTenant))
	}
	text := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, text, `hetwired_tenant_jobs_total{tenant="alpha",state="done"}`); v != perTenant {
		t.Errorf("alpha done counter = %v, want %d", v, perTenant)
	}
	if v := metricValue(t, text, `hetwired_tenant_weight{tenant="alpha"}`); v != 3 {
		t.Errorf("alpha weight gauge = %v, want 3", v)
	}
	if v := metricValue(t, text, `hetwired_tenant_sim_cpu_seconds_total{tenant="beta"}`); v <= 0 {
		t.Errorf("beta sim-CPU counter = %v, want > 0", v)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- priority lanes: a bulk storm must not delay interactive admission ---

// TestInteractiveLaneUnderBulkStorm floods the bulk lane with sweeps, then
// submits one single-scenario run. The reserved interactive worker slot
// must start it promptly — bounded queue wait — even though the bulk
// backlog is deep at submission time.
func TestInteractiveLaneUnderBulkStorm(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 128})
	var sweepID string
	for i := 0; i < 12; i++ {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"sweep": map[string]any{
				"models":     []string{"I", "VIII"},
				"benchmarks": []string{"gcc"},
				"ns":         []uint64{uint64(120000 + 64*i)},
			},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep %d = %d: %s", i, resp.StatusCode, raw)
		}
		var st JobStatus
		mustUnmarshal(t, raw, &st)
		if st.Lane != "bulk" {
			t.Fatalf("sweep lane = %q, want bulk", st.Lane)
		}
		sweepID = st.ID
	}
	// With workers=2 the bulk cap is 1, so at most one sweep can have been
	// dispatched: the backlog is provably deep when the run arrives.
	if depth := s.queue.depthNow(); depth < 8 {
		t.Fatalf("queue depth = %d at run submission, storm did not build a backlog", depth)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": 20000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run = %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	mustUnmarshal(t, raw, &st)
	if st.Lane != "interactive" {
		t.Errorf("run lane = %q, want interactive", st.Lane)
	}
	final := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("run state = %s err=%q", final.State, final.Error)
	}
	// The admission-to-start bound: generous for CI noise, but far below
	// the storm's drain time through a single bulk slot.
	if final.QueueMS > 2000 {
		t.Errorf("interactive run waited %.0fms behind a bulk storm, want < 2000ms", final.QueueMS)
	}
	waitTerminal(t, ts.URL, sweepID, 120*time.Second)
}

// --- idempotency is tenant-scoped ---

// TestIdempotencyScopedPerTenant: the same Idempotency-Key from two tenants
// must create two jobs (replay across tenants would leak one tenant's
// results to another); the same key from the same tenant must replay.
func TestIdempotencyScopedPerTenant(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, Tenants: qosTenants()})
	body := map[string]any{"benchmark": "gzip", "n": 34567}

	respA, rawA := postAs(t, ts.URL+"/v1/jobs", "key-alpha", "same-key", body)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("alpha submit = %d: %s", respA.StatusCode, rawA)
	}
	var stA JobStatus
	mustUnmarshal(t, rawA, &stA)
	if stA.Tenant != "alpha" {
		t.Errorf("job tenant = %q, want alpha", stA.Tenant)
	}

	respB, rawB := postAs(t, ts.URL+"/v1/jobs", "key-beta", "same-key", body)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("beta submit with alpha's idempotency key = %d (%s), want 202 (a fresh job)",
			respB.StatusCode, rawB)
	}
	if respB.Header.Get("X-Hetwired-Idempotent") == "replay" {
		t.Fatal("cross-tenant idempotency replay: beta was handed alpha's job")
	}
	var stB JobStatus
	mustUnmarshal(t, rawB, &stB)
	if stB.ID == stA.ID {
		t.Fatalf("cross-tenant submissions shared job ID %s", stA.ID)
	}
	if stB.Tenant != "beta" {
		t.Errorf("beta's job tenant = %q, want beta", stB.Tenant)
	}

	respA2, rawA2 := postAs(t, ts.URL+"/v1/jobs", "key-alpha", "same-key", body)
	if respA2.StatusCode != http.StatusOK || respA2.Header.Get("X-Hetwired-Idempotent") != "replay" {
		t.Fatalf("alpha retry = %d idempotent=%q, want 200 replay",
			respA2.StatusCode, respA2.Header.Get("X-Hetwired-Idempotent"))
	}
	var stA2 JobStatus
	mustUnmarshal(t, rawA2, &stA2)
	if stA2.ID != stA.ID {
		t.Errorf("same-tenant replay returned job %s, want %s", stA2.ID, stA.ID)
	}
}

// --- overload protection: machine-readable rejections + Retry-After ---

func rejectionReason(t *testing.T, raw []byte) string {
	t.Helper()
	var body struct {
		Reason string `json:"reason"`
	}
	mustUnmarshal(t, raw, &body)
	return body.Reason
}

// cancelJob sends DELETE /v1/jobs/{id} and requires a 200.
func cancelJob(t *testing.T, base, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s = %d, want 200", id, resp.StatusCode)
	}
}

// TestCancelQueuedJobReturnsQueueShare: cancelling a queued job gives its
// queue slot back at once. A tenant at its queue-share cap that cancels one
// queued job may submit again right away, and its Queued ledger drops with
// the cancel, not when a worker later pops the dead job.
func TestCancelQueuedJobReturnsQueueShare(t *testing.T) {
	cfg := &tenant.Config{Tenants: []tenant.Spec{{Name: "capped", Key: "key-capped", QueueShare: 0.2}}}
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 10, Tenants: cfg, ShedInterval: time.Hour})
	capped, _ := s.tenants.Lookup("key-capped")
	submit := func(body map[string]any) (int, string) {
		resp, raw := postAs(t, ts.URL+"/v1/jobs", "key-capped", "", body)
		var st JobStatus
		if resp.StatusCode == http.StatusAccepted {
			mustUnmarshal(t, raw, &st)
		}
		return resp.StatusCode, st.ID
	}
	var ids []string
	defer func() {
		for _, id := range ids {
			cancelJob(t, ts.URL, id)
		}
	}()
	// Occupy the single worker so the next submissions stay queued.
	code, id := submit(map[string]any{"benchmark": "swim", "n": 3000000})
	if code != http.StatusAccepted {
		t.Fatalf("long job = %d", code)
	}
	ids = append(ids, id)
	waitFor(t, 10*time.Second, func() bool { return capped.Snapshot().InFlight == 1 }, "long job dispatched")
	// Share 0.2 of depth 10 = 2 queue slots: fill both.
	var queued []string
	for i := 0; i < 2; i++ {
		code, id := submit(map[string]any{"benchmark": "gzip", "n": 40000 + i})
		if code != http.StatusAccepted {
			t.Fatalf("filler %d = %d", i, code)
		}
		queued = append(queued, id)
		ids = append(ids, id)
	}
	if code, _ := submit(map[string]any{"benchmark": "gzip", "n": 50000}); code != http.StatusTooManyRequests {
		t.Fatalf("over-share submit = %d, want 429", code)
	}

	cancelJob(t, ts.URL, queued[0])
	if got := capped.Snapshot().Queued; got != 1 {
		t.Errorf("Queued after cancelling one of two queued jobs = %d, want 1", got)
	}
	if depth := s.queue.depthNow(); depth != 1 {
		t.Errorf("queue depth after the cancel = %d, want 1", depth)
	}
	code, id = submit(map[string]any{"benchmark": "gzip", "n": 50001})
	if code != http.StatusAccepted {
		t.Fatalf("submit after cancelling a queued job = %d, want 202 (the slot was not returned)", code)
	}
	ids = append(ids, id)
}

func TestTenantRejections(t *testing.T) {
	cfg := &tenant.Config{Tenants: []tenant.Spec{
		{Name: "ratey", Key: "key-ratey", RatePerSec: 0.25, Burst: 1},
		{Name: "capped", Key: "key-capped", QueueShare: 0.2},
	}}
	// ShedInterval an hour out: the watchdog would otherwise clear the
	// forced load-shed latch (queue empty <= low water) mid-subtest.
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 10, Tenants: cfg, ShedInterval: time.Hour})

	t.Run("unknown_tenant", func(t *testing.T) {
		resp, raw := postAs(t, ts.URL+"/v1/jobs", "no-such-key", "", map[string]any{"benchmark": "gzip", "n": 1000})
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("status = %d, want 401", resp.StatusCode)
		}
		if got := rejectionReason(t, raw); got != hetwire.ReasonUnknownTenant {
			t.Errorf("reason = %q, want %q", got, hetwire.ReasonUnknownTenant)
		}
	})

	t.Run("tenant_rate_limited", func(t *testing.T) {
		resp1, raw1 := postAs(t, ts.URL+"/v1/jobs", "key-ratey", "", map[string]any{"benchmark": "gzip", "n": 5000})
		if resp1.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit = %d: %s", resp1.StatusCode, raw1)
		}
		resp2, raw2 := postAs(t, ts.URL+"/v1/jobs", "key-ratey", "", map[string]any{"benchmark": "gzip", "n": 6000})
		if resp2.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("second submit = %d (%s), want 429", resp2.StatusCode, raw2)
		}
		if got := rejectionReason(t, raw2); got != hetwire.ReasonTenantRateLimited {
			t.Errorf("reason = %q, want %q", got, hetwire.ReasonTenantRateLimited)
		}
		// The bucket refills at 0.25 tok/s from empty: the tenant's own
		// Retry-After is ~4s, NOT the global queue-drain estimate (~1s on an
		// idle daemon) — the header must come from the tenant's bucket.
		ra, err := strconv.Atoi(resp2.Header.Get("Retry-After"))
		if err != nil || ra < 3 || ra > 4 {
			t.Errorf("Retry-After = %q, want the bucket refill time (3-4s)", resp2.Header.Get("Retry-After"))
		}
	})

	t.Run("tenant_queue_share", func(t *testing.T) {
		// Occupy the single worker so subsequent submissions stay queued.
		resp, raw := postAs(t, ts.URL+"/v1/jobs", "key-capped", "", map[string]any{"benchmark": "swim", "n": 3000000})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("long job = %d: %s", resp.StatusCode, raw)
		}
		var long JobStatus
		mustUnmarshal(t, raw, &long)
		capped, _ := s.tenants.Lookup("key-capped")
		waitFor(t, 10*time.Second, func() bool { return capped.Snapshot().InFlight == 1 },
			"long job dispatched")
		// Leave the tenant idle for the next subtest: cancel everything this
		// one submitted and wait until its ledger has drained.
		ids := []string{long.ID}
		defer func() {
			for _, id := range ids {
				cancelJob(t, ts.URL, id)
			}
			waitFor(t, 10*time.Second, func() bool {
				u := capped.Snapshot()
				return u.Queued == 0 && u.InFlight == 0
			}, "capped's ledger to drain")
		}()
		// Share 0.2 of depth 10 = 2 queue slots. Two queued submissions fit;
		// the third bounces with the tenant-scoped reason, not queue_full.
		for i := 0; i < 2; i++ {
			resp, raw := postAs(t, ts.URL+"/v1/jobs", "key-capped", "", map[string]any{"benchmark": "gzip", "n": 40000 + i})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("filler %d = %d: %s", i, resp.StatusCode, raw)
			}
			var filler JobStatus
			mustUnmarshal(t, raw, &filler)
			ids = append(ids, filler.ID)
		}
		resp3, raw3 := postAs(t, ts.URL+"/v1/jobs", "key-capped", "", map[string]any{"benchmark": "gzip", "n": 50000})
		if resp3.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-share submit = %d (%s), want 429", resp3.StatusCode, raw3)
		}
		if got := rejectionReason(t, raw3); got != hetwire.ReasonTenantQueueShare {
			t.Errorf("reason = %q, want %q", got, hetwire.ReasonTenantQueueShare)
		}
		if ra, err := strconv.Atoi(resp3.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Errorf("Retry-After = %q, want a positive integer of seconds", resp3.Header.Get("Retry-After"))
		}
	})

	t.Run("load_shed", func(t *testing.T) {
		s.setShed(true)
		defer s.setShed(false)
		if !s.Shedding() {
			t.Fatal("setShed(true) did not engage shedding")
		}
		resp, raw := postAs(t, ts.URL+"/v1/jobs", "key-ratey", "", map[string]any{
			"sweep": map[string]any{"models": []string{"I"}, "benchmarks": []string{"gzip"}, "ns": []uint64{60000}},
		})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("bulk under shed = %d (%s), want 429", resp.StatusCode, raw)
		}
		if got := rejectionReason(t, raw); got != hetwire.ReasonLoadShed {
			t.Errorf("reason = %q, want %q", got, hetwire.ReasonLoadShed)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Errorf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
		}
		// The interactive lane stays open while shedding: that is the point.
		resp2, raw2 := postAs(t, ts.URL+"/v1/jobs", "key-capped", "", map[string]any{"benchmark": "gzip", "n": 70000})
		if resp2.StatusCode != http.StatusAccepted {
			t.Errorf("interactive under shed = %d (%s), want 202", resp2.StatusCode, raw2)
		}
	})

	text := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, text, `hetwired_tenant_rejected_total{tenant="ratey",reason="tenant_rate_limited"}`); v < 1 {
		t.Errorf("ratey rate-limit rejection counter = %v, want >= 1", v)
	}
	if v := metricValue(t, text, `hetwired_tenant_rejected_total{tenant="capped",reason="tenant_queue_share"}`); v < 1 {
		t.Errorf("capped queue-share rejection counter = %v, want >= 1", v)
	}
	if v := metricValue(t, text, "hetwired_load_shed_engaged_total"); v < 1 {
		t.Errorf("load-shed engagement counter = %v, want >= 1", v)
	}
}

// TestRetryAfterForPaths pins the unit behaviour satellite (b) asks for:
// tenant_rate_limited backs off by the tenant's own bucket refill (rounded
// up to whole seconds, minimum 1), every other reason by the global
// queue-drain estimate.
func TestRetryAfterForPaths(t *testing.T) {
	cfg := &tenant.Config{Tenants: []tenant.Spec{
		{Name: "slow", Key: "key-slow", RatePerSec: 0.5, Burst: 1},
	}}
	s, _ := newTestServer(t, Options{Workers: 1, Tenants: cfg, DefaultRetryAfter: time.Second})
	tn, ok := s.tenants.Lookup("key-slow")
	if !ok {
		t.Fatal("tenant not registered")
	}
	if !tn.Allow(time.Now()) {
		t.Fatal("fresh bucket denied its burst token")
	}
	// Empty bucket at 0.5 tok/s: refill takes ~2s; the rounded header value
	// must be 2, not the global 1s default.
	got := s.retryAfterFor(tn, hetwire.ReasonTenantRateLimited)
	if got != 2*time.Second {
		t.Errorf("retryAfterFor(rate_limited) = %s, want 2s (tenant bucket refill)", got)
	}
	// Non-rate reasons use the global estimate: idle daemon, no observed
	// jobs, so the configured default comes back.
	if got := s.retryAfterFor(tn, hetwire.ReasonTenantQueueShare); got != time.Second {
		t.Errorf("retryAfterFor(queue_share) = %s, want the global 1s estimate", got)
	}
	if got := s.retryAfterFor(nil, hetwire.ReasonTenantRateLimited); got != time.Second {
		t.Errorf("retryAfterFor(nil tenant) = %s, want the global fallback", got)
	}
}

// --- metrics cardinality: the tenant label set is bounded ---

// TestTenantMetricsCardinalityFold feeds the renderer more tenants than
// maxTenantLabels and requires the overflow to fold into one aggregated
// "other" series instead of growing the exposition without bound.
func TestTenantMetricsCardinalityFold(t *testing.T) {
	m := NewMetrics(1, time.Now())
	const n = maxTenantLabels + 6
	snaps := make([]tenant.Snapshot, n)
	for i := range snaps {
		snaps[i] = tenant.Snapshot{
			Name:      fmt.Sprintf("t-%03d", i),
			Weight:    1,
			Submitted: 1,
			Done:      1,
			Rejected:  map[string]uint64{"queue_full": 1},
		}
	}
	m.SetTenantStats(func() []tenant.Snapshot { return snaps })
	var buf bytes.Buffer
	m.render(&buf, 0, false, CacheStats{}, time.Now())
	text := buf.String()

	labels := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "hetwired_tenant_jobs_submitted_total{tenant=\"") {
			continue
		}
		rest := strings.TrimPrefix(line, "hetwired_tenant_jobs_submitted_total{tenant=\"")
		labels[rest[:strings.IndexByte(rest, '"')]] = true
	}
	if len(labels) > maxTenantLabels {
		t.Errorf("tenant label cardinality = %d, want <= %d", len(labels), maxTenantLabels)
	}
	if !labels["other"] {
		t.Fatalf("overflow tenants were not folded into \"other\" (got %d labels)", len(labels))
	}
	// The fold preserves totals: n snapshots of 1 submission each must sum
	// to n across the bounded label set.
	var sum float64
	for name := range labels {
		sum += metricValue(t, text, `hetwired_tenant_jobs_submitted_total{tenant="`+name+`"}`)
	}
	if int(sum) != n {
		t.Errorf("submitted sum across folded labels = %v, want %d", sum, n)
	}
	// The aggregate pseudo-tenant must not claim a scheduling weight.
	if strings.Contains(text, `hetwired_tenant_weight{tenant="other"}`) {
		t.Error("\"other\" emitted a weight gauge; it is an aggregate, not a tenant")
	}
	if v := metricValue(t, text, `hetwired_tenant_rejected_total{tenant="other",reason="queue_full"}`); int(v) != n-(maxTenantLabels-1) {
		t.Errorf("other rejected{queue_full} = %v, want %d", v, n-(maxTenantLabels-1))
	}
}
