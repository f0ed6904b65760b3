// Ops-plane tests: the flight-recorder debug endpoint and its determinism
// contract, auto-dump on worker panic, the scheduler expvar/gauge surface,
// and the per-tenant SLO metrics and usage report.
package server

import (
	"bytes"
	"encoding/json"
	"expvar"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetwire/internal/obs/flight"
	"hetwire/internal/tenant"
	"hetwire/internal/wire"
)

// fetchFlight GETs /v1/debug/flight with the given Accept header and query.
func fetchFlight(t *testing.T, base, accept, query string) (string, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/debug/flight"+query, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/flight%s: %d", query, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("Content-Type"), raw
}

// TestFlightDebugEndpoint drives one traced job and checks the dump carries
// the decision chain (admit -> dispatch -> cache miss) under the client's
// trace ID, that canonical dumps are byte-stable across fetches, and that a
// client asking for the binary encoding still gets the same JSONL bytes.
func TestFlightDebugEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	body, _ := json.Marshal(map[string]any{"benchmark": "gzip", "n": 8000})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "flight-e2e-0001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, ts.URL, st.ID, 30*time.Second)

	ct, raw := fetchFlight(t, ts.URL, "", "")
	if ct != "application/x-ndjson" {
		t.Errorf("JSON dump Content-Type = %q", ct)
	}
	hdr, events, err := flight.ReadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != flight.Schema || hdr.Source != "hetwired" {
		t.Errorf("dump header = %+v", hdr)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		if ev.Trace == "flight-e2e-0001" {
			kinds[ev.Kind] = true
		}
	}
	for _, want := range []string{flight.KindAdmit, flight.KindDispatch, flight.KindCacheMiss} {
		if !kinds[want] {
			t.Errorf("dump is missing a %q event for the traced job (got %v)", want, kinds)
		}
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("dump out of seq order at %d", i)
		}
	}

	// Canonical dumps of unchanged state are byte-identical — the property
	// the CI cmp check enforces.
	_, canon1 := fetchFlight(t, ts.URL, "", "?canon=1")
	_, canon2 := fetchFlight(t, ts.URL, "", "?canon=1")
	if !bytes.Equal(canon1, canon2) {
		t.Error("two canonical dumps of the same ring differ")
	}

	// Dumps are JSONL only: Accept cannot select another encoding.
	wct, viaWire := fetchFlight(t, ts.URL, wire.ContentType, "?canon=1")
	if wct != "application/x-ndjson" {
		t.Errorf("dump Content-Type under Accept %s = %q, want application/x-ndjson", wire.ContentType, wct)
	}
	if !bytes.Equal(viaWire, canon1) {
		t.Error("Accept changed the dump bytes")
	}
}

func TestFlightDisabledReturns404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, FlightEvents: -1})
	resp, err := http.Get(ts.URL + "/v1/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled recorder: status %d, want 404", resp.StatusCode)
	}
}

// TestFlightAutoDumpOnPanic checks the incident path: a worker panic leaves
// a flight dump on disk whose tail records the panic against the victim job.
func TestFlightAutoDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	in := mustInjector(t, "seed=5,panic=1,panic.max=1")
	_, ts := newTestServer(t, Options{Workers: 1, Faults: in, FlightDir: dir})

	_, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gcc", "n": 8000})
	var victim JobStatus
	mustDecode(t, raw, &victim)
	if st := waitTerminal(t, ts.URL, victim.ID, 30*time.Second); st.State != StateFailed {
		t.Fatalf("panicked job state = %s", st.State)
	}

	var dump string
	deadline := time.Now().Add(10 * time.Second)
	for dump == "" && time.Now().Before(deadline) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "flight-panic-") {
				dump = filepath.Join(dir, e.Name())
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dump == "" {
		t.Fatal("no flight-panic-* dump appeared")
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, events, err := flight.ReadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == flight.KindPanic && ev.Job == victim.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("auto-dump has no panic event for %s", victim.ID)
	}
}

// TestSchedExpvarAndLaneGauges checks satellite (a): the fair queue's
// internals are visible through the hetwired_sched expvar and the lane-depth
// gauges on /metrics.
func TestSchedExpvarAndLaneGauges(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	_, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": 8000})
	var st JobStatus
	mustDecode(t, raw, &st)
	waitTerminal(t, ts.URL, st.ID, 30*time.Second)

	v := expvar.Get("hetwired_sched")
	if v == nil {
		t.Fatal("hetwired_sched expvar not published")
	}
	var snap SchedSnapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("hetwired_sched is not a SchedSnapshot: %v\n%s", err, v.String())
	}
	if _, ok := snap.LaneDepth[laneInteractive.String()]; !ok {
		t.Errorf("expvar lane_depth missing interactive lane: %+v", snap)
	}
	if _, ok := snap.LaneDepth[laneBulk.String()]; !ok {
		t.Errorf("expvar lane_depth missing bulk lane: %+v", snap)
	}
	if snap.Seq == 0 {
		t.Error("expvar snapshot saw no dispatches after a completed job")
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`hetwired_sched_lane_depth{lane="bulk"}`,
		`hetwired_sched_lane_depth{lane="interactive"}`,
		"hetwired_sched_bulk_running",
		"hetwired_sched_bulk_cap",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSLOMetricsAndTenantUsage checks the per-tenant SLO layer end to end: a
// tenant with a latency objective runs a job, and the verdict counters, burn
// rates, latency histograms, and the /v1/tenants/usage report all surface it.
func TestSLOMetricsAndTenantUsage(t *testing.T) {
	cfg := &tenant.Config{Tenants: []tenant.Spec{
		{Name: "gold", Key: "key-gold", Weight: 2, SLOMS: 60_000, SLOTargetPct: 99},
		{Name: "free", Key: "key-free", Weight: 1}, // no SLO: must not emit slo series
	}}
	_, ts := newTestServer(t, Options{Workers: 1, Tenants: cfg})

	_, raw := postAs(t, ts.URL+"/v1/jobs", "key-gold", "", map[string]any{"benchmark": "gzip", "n": 8000})
	var st JobStatus
	mustDecode(t, raw, &st)
	if final := waitTerminal(t, ts.URL, st.ID, 30*time.Second); final.State != StateDone {
		t.Fatalf("job ended %s", final.State)
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`hetwired_slo_target_pct{tenant="gold"} 99`,
		`hetwired_slo_requests_total{tenant="gold",verdict="good"} 1`,
		`hetwired_slo_requests_total{tenant="gold",verdict="bad"} 0`,
		`hetwired_slo_burn_rate{tenant="gold",window="5m"} 0`,
		`hetwired_slo_burn_rate{tenant="gold",window="1h"} 0`,
		`hetwired_tenant_e2e_latency_seconds_count{tenant="gold"} 1`,
		`hetwired_tenant_queue_wait_seconds_count{tenant="gold"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, `hetwired_slo_target_pct{tenant="free"}`) {
		t.Error("tenant without an SLO emitted slo series")
	}

	var usage struct {
		Tenants []tenant.Snapshot `json:"tenants"`
	}
	getJSON(t, ts.URL+"/v1/tenants/usage", &usage)
	var gold *tenant.Snapshot
	for i := range usage.Tenants {
		if usage.Tenants[i].Name == "gold" {
			gold = &usage.Tenants[i]
		}
	}
	if gold == nil {
		t.Fatalf("usage report missing tenant gold: %+v", usage.Tenants)
	}
	if gold.Submitted != 1 || gold.Done != 1 {
		t.Errorf("gold ledger = submitted %d done %d, want 1/1", gold.Submitted, gold.Done)
	}
	if gold.SLOMS != 60_000 || gold.SLOTarget != 99 {
		t.Errorf("gold SLO in usage = %v/%v", gold.SLOMS, gold.SLOTarget)
	}
}

// TestSLOBurnRateWindows exercises the minute-bucket ring directly: bad
// verdicts inside the 5m window burn hot, and aging past it cools the short
// window while the 1h window still sees them.
func TestSLOBurnRateWindows(t *testing.T) {
	m := NewMetrics(1, time.Unix(0, 0))
	t0 := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 9; i++ {
		m.ObserveSLO("t", 99, true, 10*time.Millisecond, time.Millisecond, t0)
	}
	m.ObserveSLO("t", 99, false, 5*time.Second, time.Millisecond, t0)

	burn := func(now time.Time, window string) float64 {
		var buf strings.Builder
		m.renderSLO(&buf, now)
		return metricValue(t, buf.String(), `hetwired_slo_burn_rate{tenant="t",window="`+window+`"}`)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*math.Max(1, want) }
	// 1 bad in 10 over a 1% budget: burn = 0.1/0.01 = 10, both windows.
	if got := burn(t0, "5m"); !near(got, 10) {
		t.Errorf("5m burn at t0 = %g, want 10", got)
	}
	if got := burn(t0, "1h"); !near(got, 10) {
		t.Errorf("1h burn at t0 = %g, want 10", got)
	}
	// 10 minutes later the samples left the 5m window but not the 1h one.
	if got := burn(t0.Add(10*time.Minute), "5m"); got != 0 {
		t.Errorf("5m burn after aging = %g, want 0", got)
	}
	if got := burn(t0.Add(10*time.Minute), "1h"); !near(got, 10) {
		t.Errorf("1h burn after aging = %g, want 10", got)
	}
}
