package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetwire/internal/faultinject"
	"hetwire/internal/tenant"
)

// TestChaosStorm is the chaos suite's centerpiece: a live daemon with every
// fault point armed (worker panics, artificial slowness, spurious
// cancellations, cache corruption) under a concurrent submit/poll/cancel
// storm. The invariants that must survive arbitrary fault interleavings:
//
//   - every accepted job reaches a terminal state (no deadlocks, no zombies)
//   - the terminal-state counters sum exactly to the accepted-job count
//   - panicked jobs carry a stack trace and respect the injector's fire cap
//   - the worker pool keeps its size (respawns replace panicked workers)
//   - the daemon drains cleanly afterwards
//
// The injector is seeded, so a failure replays with the same fault pattern.
func TestChaosStorm(t *testing.T) {
	in, err := faultinject.Parse("seed=11,panic=0.1,panic.max=3,slow=0.35,slowms=15,cancel=0.1,corrupt=0.25")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	s := New(Options{Workers: workers, QueueDepth: 64, Faults: in})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var mu sync.Mutex
	var ids []string
	addID := func(id string) { mu.Lock(); ids = append(ids, id); mu.Unlock() }
	snapshot := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), ids...)
	}
	post := func(body map[string]any) (int, JobStatus) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Errorf("marshal: %v", err)
			return 0, JobStatus{}
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Errorf("submit: %v", err)
			return 0, JobStatus{}
		}
		defer resp.Body.Close()
		var st JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}

	// Pollers keep every read endpoint hot while faults fire.
	stopPoll := make(chan struct{})
	var pollers sync.WaitGroup
	for g := 0; g < 2; g++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				for _, id := range snapshot() {
					if resp, err := http.Get(ts.URL + "/v1/jobs/" + id); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	benches := []string{"gzip", "gcc", "mcf", "swim", "mesa", "vortex"}
	var submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i := 0; i < 9; i++ {
				code, st := post(map[string]any{
					"benchmark": benches[(g+i)%len(benches)],
					"n":         4000 + 700*i + 11000*g, // distinct budgets defeat the cache
				})
				if code == http.StatusAccepted {
					addID(st.ID)
					if i%5 == 4 { // cancel a slice of accepted jobs, any state
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
						if resp, err := http.DefaultClient.Do(req); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				} else if code != http.StatusTooManyRequests {
					t.Errorf("submit status = %d", code)
				}
			}
		}(g)
	}
	// Two batch jobs ride along so the multi-scenario path sees faults too.
	submitters.Add(1)
	go func() {
		defer submitters.Done()
		for i := 0; i < 2; i++ {
			code, st := post(map[string]any{
				"batch": map[string]any{"sweep": map[string]any{
					"models":     []string{"I", "V"},
					"benchmarks": []string{"gzip", "mcf"},
					"ns":         []uint64{6000 + uint64(i)*500},
				}},
			})
			if code == http.StatusAccepted {
				addID(st.ID)
			}
		}
	}()
	submitters.Wait()
	close(stopPoll)
	pollers.Wait()

	accepted := snapshot()
	if len(accepted) < 20 {
		t.Fatalf("only %d jobs accepted; the storm exercised too little", len(accepted))
	}
	panickedJobs := 0
	for _, id := range accepted {
		st := waitTerminal(t, ts.URL, id, 60*time.Second)
		if !st.State.Terminal() {
			t.Errorf("job %s not terminal: %s", id, st.State)
		}
		if strings.Contains(st.Error, "worker panic") {
			panickedJobs++
			if !strings.Contains(st.FailureLog, "goroutine") {
				t.Errorf("panicked job %s has no stack trace in failure_log", id)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}

	// The harness must actually have injected something, and its panic cap
	// must hold; bookkeeping must balance exactly.
	fired := in.Fired(faultinject.WorkerPanic) + in.Fired(faultinject.JobSlow) +
		in.Fired(faultinject.CtxCancel) + in.Fired(faultinject.CacheCorrupt)
	if fired == 0 {
		t.Error("no faults fired; the chaos test tested nothing")
	}
	if got := s.Metrics().JobsPanicked(); got != in.Fired(faultinject.WorkerPanic) {
		t.Errorf("jobs_panicked = %d, injector fired %d", got, in.Fired(faultinject.WorkerPanic))
	}
	if got := s.Metrics().JobsPanicked(); got > 3 {
		t.Errorf("jobs_panicked = %d, cap was 3", got)
	}
	if got := s.Metrics().JobsPanicked(); uint64(panickedJobs) != got {
		t.Errorf("%d jobs report a panic, counter says %d", panickedJobs, got)
	}
	if got := s.Metrics().WorkersRespawned(); got != s.Metrics().JobsPanicked() {
		t.Errorf("respawns = %d, panics = %d", got, s.Metrics().JobsPanicked())
	}

	text := scrapeMetrics(t, ts.URL)
	terminal := metricValue(t, text, `hetwired_jobs_total{state="done"}`) +
		metricValue(t, text, `hetwired_jobs_total{state="failed"}`) +
		metricValue(t, text, `hetwired_jobs_total{state="cancelled"}`)
	if int(terminal) != len(accepted) {
		t.Errorf("terminal-state counters sum to %v, accepted %d jobs", terminal, len(accepted))
	}
	if got := metricValue(t, text, "hetwired_workers"); got != workers {
		t.Errorf("workers gauge = %v, want %d (pool shrank?)", got, workers)
	}
	if got := metricValue(t, text, `hetwired_jobs{state="running"}`); got != 0 {
		t.Errorf("running gauge = %v after drain", got)
	}
	if got := metricValue(t, text, "hetwired_queue_depth"); got != 0 {
		t.Errorf("queue depth = %v after drain", got)
	}
	t.Logf("chaos: %d jobs, faults fired: %s", len(accepted), in)
}

// TestChaosStormMultiTenant re-runs the storm with keyed tenants at mixed
// weights while every fault point is armed. On top of the global chaos
// invariants, the per-tenant ledgers must balance exactly: for every tenant,
// submitted == accepted and done+failed+cancelled == accepted — worker
// panics, spurious cancellations, and queue-full bounces included. Fault
// accounting that is merely eventually-consistent per tenant would make
// billing and fairness meaningless, so the equality is exact, not bounded.
func TestChaosStormMultiTenant(t *testing.T) {
	in, err := faultinject.Parse("seed=23,panic=0.1,panic.max=3,slow=0.3,slowms=12,cancel=0.1,corrupt=0.2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &tenant.Config{Tenants: []tenant.Spec{
		{Name: "alpha", Key: "storm-alpha", Weight: 3},
		{Name: "beta", Key: "storm-beta", Weight: 1},
		{Name: "gamma", Key: "storm-gamma", Weight: 2, QueueShare: 0.5},
	}}
	const workers = 3
	s := New(Options{Workers: workers, QueueDepth: 64, Faults: in, Tenants: cfg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var mu sync.Mutex
	ids := map[string][]string{} // tenant name -> accepted job IDs
	addID := func(tn, id string) { mu.Lock(); ids[tn] = append(ids[tn], id); mu.Unlock() }
	post := func(key string, body map[string]any) (int, JobStatus) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Errorf("marshal: %v", err)
			return 0, JobStatus{}
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw))
		if err != nil {
			t.Errorf("request: %v", err)
			return 0, JobStatus{}
		}
		if key != "" {
			req.Header.Set(TenantHeader, key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("submit: %v", err)
			return 0, JobStatus{}
		}
		defer resp.Body.Close()
		var st JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st
	}

	// One submitter per keyed tenant plus one anonymous (keyless requests
	// resolve to the anonymous tenant and must be accounted the same way).
	keys := []string{"storm-alpha", "storm-beta", "storm-gamma", ""}
	names := []string{"alpha", "beta", "gamma", "anonymous"}
	benches := []string{"gzip", "gcc", "mcf", "swim", "mesa", "vortex"}
	var submitters sync.WaitGroup
	for g := range keys {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i := 0; i < 9; i++ {
				body := map[string]any{
					"benchmark": benches[(g+i)%len(benches)],
					"n":         5000 + 900*i + 13000*g, // distinct budgets defeat the cache
				}
				if i == 7 { // one batch per tenant exercises the bulk lane
					body = map[string]any{"batch": map[string]any{"sweep": map[string]any{
						"models":     []string{"I", "V"},
						"benchmarks": []string{benches[g]},
						"ns":         []uint64{uint64(90000 + 1000*g)},
					}}}
				}
				code, st := post(keys[g], body)
				switch {
				case code == http.StatusAccepted:
					if st.Tenant != names[g] {
						t.Errorf("accepted job tenant = %q, want %q", st.Tenant, names[g])
					}
					addID(names[g], st.ID)
					if i%4 == 3 { // cancel a slice of accepted jobs, any state
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
						if resp, err := http.DefaultClient.Do(req); err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				case code == http.StatusTooManyRequests:
					// queue_full / tenant_queue_share under storm: legitimate.
				default:
					t.Errorf("submit status = %d for tenant %s", code, names[g])
				}
			}
		}(g)
	}
	submitters.Wait()

	total := 0
	mu.Lock()
	for _, list := range ids {
		total += len(list)
	}
	perTenant := make(map[string][]string, len(ids))
	for name, list := range ids {
		perTenant[name] = append([]string(nil), list...)
	}
	mu.Unlock()
	if total < 20 {
		t.Fatalf("only %d jobs accepted; the storm exercised too little", total)
	}
	for _, list := range perTenant {
		for _, id := range list {
			waitTerminal(t, ts.URL, id, 60*time.Second)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}

	for _, name := range names {
		accepted := uint64(len(perTenant[name]))
		var snap tenant.Snapshot
		for _, tn := range s.tenants.All() {
			if tn.Name() == name {
				snap = tn.Snapshot()
			}
		}
		if snap.Name != name {
			t.Fatalf("tenant %s missing from registry", name)
		}
		if snap.Submitted != accepted {
			t.Errorf("tenant %s: submitted counter = %d, accepted %d", name, snap.Submitted, accepted)
		}
		if terminal := snap.Done + snap.Failed + snap.Cancelled; terminal != accepted {
			t.Errorf("tenant %s: done+failed+cancelled = %d (%d+%d+%d), accepted %d",
				name, terminal, snap.Done, snap.Failed, snap.Cancelled, accepted)
		}
		if snap.Queued != 0 || snap.InFlight != 0 {
			t.Errorf("tenant %s: queued=%d in_flight=%d after drain, want 0/0", name, snap.Queued, snap.InFlight)
		}
	}

	if got := s.Metrics().JobsPanicked(); got != in.Fired(faultinject.WorkerPanic) || got > 3 {
		t.Errorf("jobs_panicked = %d, injector fired %d (cap 3)", got, in.Fired(faultinject.WorkerPanic))
	}
	text := scrapeMetrics(t, ts.URL)
	terminal := metricValue(t, text, `hetwired_jobs_total{state="done"}`) +
		metricValue(t, text, `hetwired_jobs_total{state="failed"}`) +
		metricValue(t, text, `hetwired_jobs_total{state="cancelled"}`)
	if int(terminal) != total {
		t.Errorf("terminal-state counters sum to %v, accepted %d jobs", terminal, total)
	}
	if got := metricValue(t, text, "hetwired_workers"); got != workers {
		t.Errorf("workers gauge = %v, want %d (pool shrank?)", got, workers)
	}
	t.Logf("multi-tenant chaos: %d jobs across %d tenants, faults fired: %s", total, len(names), in)
}
