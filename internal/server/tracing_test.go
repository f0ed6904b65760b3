package server

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/tenant"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

func TestNormalizeRoute(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"GET", "/v1/jobs", "GET /v1/jobs"},
		{"GET", "/v1/jobs?state=done", "GET /v1/jobs"},
		{"GET", "/v1/jobs/j-000123", "GET /v1/jobs/{id}"},
		{"DELETE", "/v1/jobs/j-000123", "DELETE /v1/jobs/{id}"},
		{"GET", "/v1/jobs/j-000123?x=1", "GET /v1/jobs/{id}"},
		{"GET", "/v1/jobs/j-000123/stream", "GET /v1/jobs/{id}/stream"},
		{"GET", "/v1/jobs/j-000123/stream?from=4", "GET /v1/jobs/{id}/stream"},
		{"GET", "/v1/jobs/j-1/x/stream", "GET /v1/jobs/{id}"}, // junk segments fold to the id route
		{"GET", "/v1/debug/flight", "GET /v1/debug/flight"},
		{"GET", "/v1/debug/flight?canon=1", "GET /v1/debug/flight"},
		{"GET", "/v1/tenants/usage", "GET /v1/tenants/usage"},
		{"POST", "/v1/run", "POST /v1/run"},
		{"GET", "/healthz", "GET /healthz"},
		{"GET", "/metrics", "GET /metrics"},
		{"GET", "/", "GET other"},
		{"GET", "/favicon.ico", "GET other"},
		{"POST", "/admin/../../etc/passwd", "POST other"},
		{"GET", "/v1/jobs/", "GET other"}, // trailing slash, empty id
	}
	for _, c := range cases {
		if got := NormalizeRoute(c.method, c.path); got != c.want {
			t.Errorf("NormalizeRoute(%s, %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

func TestTraceIDValidation(t *testing.T) {
	valid := []string{"a", "0123456789abcdef", "trace-id_1.2", strings.Repeat("x", 64)}
	for _, id := range valid {
		if !validTraceID(id) {
			t.Errorf("validTraceID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", "has space", "semi;colon", "new\nline", strings.Repeat("x", 65), "ünïcode"}
	for _, id := range invalid {
		if validTraceID(id) {
			t.Errorf("validTraceID(%q) = true, want false", id)
		}
	}
	mint := MintTraceID()
	if len(mint) != 16 || !validTraceID(mint) {
		t.Errorf("MintTraceID() = %q, want 16 valid hex chars", mint)
	}
	if MintTraceID() == mint {
		t.Error("two minted trace IDs collided")
	}
}

func TestSpanRecorderMergesSameName(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sr := newSpanRecorder(base)
	sr.observe("sim_run", base.Add(10*time.Millisecond), 20*time.Millisecond)
	sr.observe("encode", base.Add(30*time.Millisecond), 1*time.Millisecond)
	sr.observe("sim_run", base.Add(50*time.Millisecond), 5*time.Millisecond)
	spans := sr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (same-name spans must merge)", len(spans))
	}
	if spans[0].Name != "sim_run" || spans[0].StartMS != 10 || spans[0].DurMS != 25 {
		t.Errorf("merged span = %+v, want start 10ms dur 25ms", spans[0])
	}

	// Nil recorder: observe and snapshot are no-ops, not panics.
	var nilRec *spanRecorder
	nilRec.observe("x", base, time.Millisecond)
	if nilRec.snapshot() != nil {
		t.Error("nil recorder snapshot is non-nil")
	}
}

// TestTraceAndSpansEndToEnd drives a job through the HTTP API with a
// client-supplied trace ID and checks the full propagation chain: echoed
// response header, job status trace_id, and populated phase spans.
func TestTraceAndSpansEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	body, _ := json.Marshal(map[string]any{"benchmark": "gzip", "n": 20000})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "e2e-trace-0001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != "e2e-trace-0001" {
		t.Errorf("response trace header = %q, want the submitted ID", got)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != "e2e-trace-0001" {
		t.Errorf("job status trace_id = %q, want the submitted ID", st.TraceID)
	}

	final := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.TraceID != "e2e-trace-0001" {
		t.Errorf("terminal trace_id = %q", final.TraceID)
	}
	byName := make(map[string]Span, len(final.Spans))
	for _, sp := range final.Spans {
		byName[sp.Name] = sp
	}
	for _, want := range []string{spanQueueWait, spanCacheLookup, spanSimRun, spanResultEncode} {
		if _, ok := byName[want]; !ok {
			t.Errorf("job spans missing %q (got %+v)", want, final.Spans)
		}
	}
	if byName[spanSimRun].DurMS <= 0 {
		t.Errorf("sim_run span duration = %v, want > 0", byName[spanSimRun].DurMS)
	}

	// A request without (or with a malformed) trace header gets a minted ID.
	resp2, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": 20000})
	minted := resp2.Header.Get(TraceHeader)
	if !validTraceID(minted) || len(minted) != 16 {
		t.Errorf("minted trace header = %q, want 16 valid chars", minted)
	}
	var st2 JobStatus
	if err := json.Unmarshal(raw, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.TraceID != minted {
		t.Errorf("job trace_id %q != echoed header %q", st2.TraceID, minted)
	}
}

// TestRejectionReasonCounters checks that admission failures surface both a
// machine-readable reason in the response body and a per-reason counter in
// the exposition.
func TestRejectionReasonCounters(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	reasonOf := func(raw []byte) string {
		var e struct {
			Reason string `json:"reason"`
		}
		json.Unmarshal(raw, &e)
		return e.Reason
	}

	resp, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "no-such-bench", "n": 1000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: status %d", resp.StatusCode)
	}
	if got := reasonOf(raw); got != hetwire.ReasonUnknownBenchmark {
		t.Errorf("unknown benchmark reason = %q, want %q", got, hetwire.ReasonUnknownBenchmark)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": hetwire.MaxInstructions + 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized budget: status %d", resp.StatusCode)
	}
	if got := reasonOf(raw); got != hetwire.ReasonBudgetExceeded {
		t.Errorf("budget reason = %q, want %q", got, hetwire.ReasonBudgetExceeded)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"batch": map[string]any{"sweep": map[string]any{"models": []string{"I"}, "benchmarks": []string{}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch sweep: status %d", resp.StatusCode)
	}
	if got := reasonOf(raw); got != hetwire.ReasonBadRequest {
		t.Errorf("empty batch sweep reason = %q, want %q", got, hetwire.ReasonBadRequest)
	}

	// Undecodable body.
	hr, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d", hr.StatusCode)
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`hetwired_jobs_rejected_total{reason="unknown_benchmark"} 1`,
		`hetwired_jobs_rejected_total{reason="budget_exceeded"} 1`,
		`hetwired_jobs_rejected_total{reason="bad_request"} 1`,
		`hetwired_jobs_rejected_total{reason="bad_json"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestEndpointCardinalityCap(t *testing.T) {
	m := NewMetrics(1, time.Unix(0, 0))
	for i := 0; i < 3*maxEndpoints; i++ {
		m.ObserveRequest(NormalizeRoute("GET", "/bogus/"+strings.Repeat("x", i+1)), 404, time.Millisecond)
	}
	// NormalizeRoute folds all of those to one label already; hit the cap by
	// feeding distinct labels directly (simulating future route additions).
	for i := 0; i < 3*maxEndpoints; i++ {
		m.ObserveRequest("GET /route-"+strings.Repeat("z", i+1), 200, time.Millisecond)
	}
	m.mu.Lock()
	n := len(m.endpoints)
	over, ok := m.endpoints[overflowLabel]
	m.mu.Unlock()
	if n > maxEndpoints+1 {
		t.Errorf("endpoint label set grew to %d, cap is %d (+overflow)", n, maxEndpoints)
	}
	if !ok || over.requests == 0 {
		t.Error("overflow label absorbed no requests")
	}
}

func TestRejectionReasonCardinalityCap(t *testing.T) {
	m := NewMetrics(1, time.Unix(0, 0))
	for i := 0; i < 3*maxRejectReasons; i++ {
		m.ObserveRejection("reason-" + strings.Repeat("r", i+1))
	}
	m.mu.Lock()
	n := len(m.rejected)
	over := m.rejected[overflowLabel]
	m.mu.Unlock()
	if n > maxRejectReasons+1 {
		t.Errorf("reason label set grew to %d, cap is %d (+overflow)", n, maxRejectReasons)
	}
	if over == 0 {
		t.Error("overflow label absorbed no rejections")
	}
}

// TestMetricsRenderGolden pins the exposition format — HELP/TYPE lines,
// label quoting and escaping, histogram bucket boundaries — against a golden
// fixture. Regenerate with: go test ./internal/server -run RenderGolden -update
func TestMetricsRenderGolden(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	m := NewMetrics(2, t0)
	m.SetBuildInfo("v1.2.3", "go1.22.0")

	// The job totals are the sums of the tenant ledgers; without per-tenant
	// series (open mode) none of the hetwired_tenant_* lines render.
	m.SetTenantStats(func() []tenant.Snapshot {
		return []tenant.Snapshot{
			{Name: "acme", Submitted: 2, Done: 1, Cancelled: 1},
			{Name: tenant.AnonymousName, Submitted: 3, Done: 2, Failed: 1},
		}
	}, false)
	m.instructions.Store(120000)
	m.simBusy.Store(int64(2 * time.Second))
	m.AddWorkerBusy(0, 1500*time.Millisecond)
	m.AddWorkerBusy(1, 500*time.Millisecond)

	m.ObserveRequest("POST /v1/jobs", 202, 800*time.Microsecond)
	m.ObserveRequest("POST /v1/jobs", 400, 300*time.Microsecond)
	m.ObserveRequest("GET /v1/jobs/{id}", 200, 1200*time.Microsecond)
	// A hostile label exercises Prometheus string escaping (%q): quotes and
	// backslashes must come out escaped, newlines must not break the line.
	m.ObserveRequest(`GET bad"route\label`, 404, 100*time.Microsecond)

	m.ObserveRejection("queue_full")
	m.ObserveRejection("unknown_benchmark")
	m.ObserveRejection("unknown_benchmark")

	m.ObservePhase(spanQueueWait, 2*time.Millisecond)
	m.ObservePhase(spanSimRun, 40*time.Millisecond)
	m.ObservePhase(spanSimRun, 90*time.Millisecond) // overflow bucket

	// Scheduler gauges and the per-tenant SLO layer render from fixed inputs
	// so the golden pins their exposition shape too.
	m.SetSchedStats(func() SchedSnapshot {
		return SchedSnapshot{
			Depth:       4,
			BulkRunning: 1,
			BulkCap:     1,
			LaneDepth:   map[string]int{"bulk": 3, "interactive": 1},
		}
	})
	m.ObserveSLO("acme", 99, true, 40*time.Millisecond, 5*time.Millisecond, t0.Add(30*time.Second))
	m.ObserveSLO("acme", 99, false, 900*time.Millisecond, 200*time.Millisecond, t0.Add(60*time.Second))

	cs := CacheStats{Entries: 2, Bytes: 1024, Budget: 4096, Hits: 7, Coalesced: 1, Misses: 4, Evictions: 1}
	var buf strings.Builder
	m.render(&buf, 3, false, cs, t0.Add(90*time.Second))
	got := buf.String()

	golden := filepath.Join("testdata", "metrics_render.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("render drifted from golden fixture; rerun with -update and review the diff.\n--- got ---\n%s", got)
	}
}
