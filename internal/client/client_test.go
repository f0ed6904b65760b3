package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/faultinject"
	"hetwire/internal/server"
	"hetwire/internal/tenant"
)

// instantSleeper replaces the client's sleep seam: it records every backoff
// the client would have taken and returns immediately.
type instantSleeper struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (s *instantSleeper) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.waits = append(s.waits, d)
	s.mu.Unlock()
	return ctx.Err()
}

func newFastClient(t *testing.T, url string, opts Options) (*Client, *instantSleeper) {
	t.Helper()
	opts.BaseURL = url
	c := New(opts)
	sl := &instantSleeper{}
	c.sleep = sl.sleep
	return c, sl
}

func okStatus(w http.ResponseWriter, code int, st server.JobStatus) {
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st)
}

// TestRetryOn429HonorsRetryAfter: a 429 with Retry-After overrides the
// backoff schedule, and the idempotency key is replayed verbatim on every
// attempt so the daemon can deduplicate.
func TestRetryOn429HonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int32
	var keys []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		okStatus(w, http.StatusAccepted, server.JobStatus{ID: "j-1", State: server.StateQueued})
	}))
	defer ts.Close()

	c, sl := newFastClient(t, ts.URL, Options{})
	st, err := c.SubmitRun(context.Background(), &hetwire.RunRequest{Benchmark: "gzip", N: 5000}, 0)
	if err != nil {
		t.Fatalf("SubmitRun: %v", err)
	}
	if st.ID != "j-1" {
		t.Errorf("job ID = %q", st.ID)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if len(sl.waits) != 2 || sl.waits[0] != 2*time.Second || sl.waits[1] != 2*time.Second {
		t.Errorf("backoffs = %v, want two 2s waits from Retry-After", sl.waits)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 3 || keys[0] == "" || keys[1] != keys[0] || keys[2] != keys[0] {
		t.Errorf("idempotency keys across attempts = %q, want one stable non-empty key", keys)
	}
	if c.Breaker() {
		t.Error("429s tripped the breaker; shedding load is not an outage")
	}
}

// TestNonRetryableStatusFailsFast: a definitive daemon answer (400) is
// returned on the first attempt — retrying a rejected request cannot help.
func TestNonRetryableStatusFailsFast(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"unknown benchmark"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c, _ := newFastClient(t, ts.URL, Options{})
	_, err := c.SubmitRun(context.Background(), &hetwire.RunRequest{Benchmark: "gzip", N: 5000}, 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError{400}", err)
	}
	if !strings.Contains(apiErr.Message, "unknown benchmark") {
		t.Errorf("message = %q, daemon error lost", apiErr.Message)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1", got)
	}
}

// TestNonIdempotentPostNotRetried: without an idempotency key, a POST that
// fails retryably is still not retried — the request may have side effects.
func TestNonIdempotentPostNotRetried(t *testing.T) {
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c, _ := newFastClient(t, ts.URL, Options{})
	err := c.do(context.Background(), &apiCall{method: http.MethodPost, path: "/v1/x", body: []byte(`{}`)}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError{503}", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (non-idempotent POST must not retry)", got)
	}
}

// TestBreakerTripsAndRecovers: consecutive 5xx failures open the circuit;
// while open, calls fail fast without touching the network; after the
// cooldown, the half-open probe closes it on success.
func TestBreakerTripsAndRecovers(t *testing.T) {
	var attempts atomic.Int32
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		if healthy.Load() {
			okStatus(w, http.StatusOK, server.JobStatus{ID: "j-2", State: server.StateDone})
			return
		}
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c, _ := newFastClient(t, ts.URL, Options{MaxAttempts: 1})
	now := time.Now()
	c.now = func() time.Time { return now }

	for i := 0; i < breakerThreshold; i++ {
		if c.Breaker() {
			t.Fatalf("breaker open after %d consecutive 500s, want %d", i, breakerThreshold)
		}
		if _, err := c.Job(context.Background(), "j-2"); err == nil {
			t.Fatal("unhealthy daemon reported success")
		}
	}
	if !c.Breaker() {
		t.Fatalf("breaker not open after %d consecutive 500s", breakerThreshold)
	}
	before := attempts.Load()
	if _, err := c.Job(context.Background(), "j-2"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-breaker call: err = %v, want ErrCircuitOpen", err)
	}
	if attempts.Load() != before {
		t.Error("open breaker still hit the network")
	}

	healthy.Store(true)
	now = now.Add(breakerCooldown + time.Second) // past the cooldown: half-open probe
	st, err := c.Job(context.Background(), "j-2")
	if err != nil || st.ID != "j-2" {
		t.Fatalf("half-open probe: %+v, %v", st, err)
	}
	if c.Breaker() {
		t.Error("breaker still open after a successful probe")
	}
}

// TestAwaitPollsToTerminal: Await keeps polling through non-terminal states
// and returns the first terminal snapshot.
func TestAwaitPollsToTerminal(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := server.JobStatus{ID: "j-3", State: server.StateRunning}
		if polls.Add(1) >= 3 {
			st.State = server.StateDone
			st.Result = json.RawMessage(`{"ipc":1.5}`)
		}
		okStatus(w, http.StatusOK, st)
	}))
	defer ts.Close()

	c, _ := newFastClient(t, ts.URL, Options{})
	st, err := c.Await(context.Background(), "j-3", time.Millisecond)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("Await = %+v, %v", st, err)
	}
	if polls.Load() != 3 {
		t.Errorf("polls = %d, want 3", polls.Load())
	}
}

// TestRunSkipsAwaitOnTerminalSubmit: a submit answered done — a cache hit
// answered at submission — carries its result, and Run does not poll.
func TestRunSkipsAwaitOnTerminalSubmit(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			polls.Add(1)
		}
		okStatus(w, http.StatusAccepted, server.JobStatus{ID: "j-4", State: server.StateDone,
			CacheHit: true, Result: json.RawMessage(`{"benchmark":"gzip","ipc":1.5}`)})
	}))
	defer ts.Close()

	c, _ := newFastClient(t, ts.URL, Options{})
	resp, st, err := c.Run(context.Background(), &hetwire.RunRequest{Benchmark: "gzip", N: 5000}, 0)
	if err != nil || resp.IPC != 1.5 || !st.CacheHit {
		t.Fatalf("Run = %+v, %+v, %v", resp, st, err)
	}
	if n := polls.Load(); n != 0 {
		t.Errorf("Run polled a job its submit answered done %d times", n)
	}
}

// TestClientServerIntegration is the acceptance scenario: a saturated daemon
// (one slowed worker, queue depth one) sheds the client's submit with 429s,
// and the client retries with backoff until capacity frees, then awaits the
// job to completion. Asserted against a real server.Server.
func TestClientServerIntegration(t *testing.T) {
	in, err := faultinject.Parse("seed=9,slow=1,slowms=400")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 1, QueueDepth: 1, Faults: in})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	// Saturate: one job claims the (slowed) worker, one fills the queue.
	submitRaw := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := submitRaw(`{"benchmark":"gcc","n":6000}`); code != http.StatusAccepted {
		t.Fatalf("blocker 1 = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for { // the worker needs a moment to pop blocker 1 off the queue
		if code := submitRaw(`{"benchmark":"mcf","n":6000}`); code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker 2 never accepted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cl := New(Options{BaseURL: ts.URL, MaxAttempts: 10})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp, st, err := cl.Run(ctx, &hetwire.RunRequest{Benchmark: "gzip", N: 8000}, 0)
	if err != nil {
		t.Fatalf("Run through saturation: %v", err)
	}
	if st.State != server.StateDone || resp.IPC <= 0 {
		t.Fatalf("result = %+v / %+v", st, resp)
	}
	if cl.Breaker() {
		t.Error("breaker open after a successful run")
	}

	// A second identical submit must replay onto the same (finished) job.
	st2, err := cl.SubmitRun(ctx, &hetwire.RunRequest{Benchmark: "gzip", N: 8000}, 0)
	if err != nil {
		t.Fatalf("replay submit: %v", err)
	}
	if st2.ID != st.ID {
		t.Errorf("replay landed on job %s, first run was %s", st2.ID, st.ID)
	}
}

// TestClientTracePropagation: every request carries the client's trace ID,
// the daemon threads it through to the job, and the finished status returns
// populated per-phase spans — the full client→daemon→simulator chain.
func TestClientTracePropagation(t *testing.T) {
	s := server.New(server.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	cl := New(Options{BaseURL: ts.URL, TraceID: "client-trace-42"})
	if cl.TraceID() != "client-trace-42" {
		t.Fatalf("TraceID() = %q", cl.TraceID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	resp, st, err := cl.Run(ctx, &hetwire.RunRequest{Benchmark: "gzip", N: 20000}, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if resp.IPC <= 0 {
		t.Fatalf("result = %+v", resp)
	}
	if st.TraceID != "client-trace-42" {
		t.Errorf("job trace_id = %q, want the client's ID", st.TraceID)
	}
	names := make(map[string]bool, len(st.Spans))
	for _, sp := range st.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"queue_wait", "cache_lookup", "sim_run", "result_encode"} {
		if !names[want] {
			t.Errorf("spans missing %q: %+v", want, st.Spans)
		}
	}

	// An unset TraceID mints one per client.
	minted := New(Options{BaseURL: ts.URL})
	if minted.TraceID() == "" || minted.TraceID() == cl.TraceID() {
		t.Errorf("minted trace ID = %q", minted.TraceID())
	}
}

// TestAPIErrorCarriesReason: the daemon's machine-readable rejection code
// survives into APIError.Reason.
func TestAPIErrorCarriesReason(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(server.TraceHeader); got != "reason-test" {
			t.Errorf("request trace header = %q", got)
		}
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"unknown benchmark \"nope\"","reason":"unknown_benchmark"}`))
	}))
	defer ts.Close()

	c, _ := newFastClient(t, ts.URL, Options{TraceID: "reason-test"})
	_, err := c.SubmitRun(context.Background(), &hetwire.RunRequest{Benchmark: "gzip", N: 5000}, 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.Reason != hetwire.ReasonUnknownBenchmark {
		t.Errorf("reason = %q, want %q", apiErr.Reason, hetwire.ReasonUnknownBenchmark)
	}
}

// TestRunWireAgainstDaemon: RunWire returns the same result as executing
// the request in process, a miss first and a cache hit on the repeat. The
// repeat comes from a second tenant: a replay of the first tenant's
// idempotency key would hand back the first job's miss.
func TestRunWireAgainstDaemon(t *testing.T) {
	s := server.New(server.Options{Workers: 1, Tenants: &tenant.Config{Tenants: []tenant.Spec{
		{Name: "a", Key: "key-a"}, {Name: "b", Key: "key-b"},
	}}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	req := &hetwire.RunRequest{Benchmark: "gzip", Model: "VII", N: 4000}
	want, err := req.Execute()
	if err != nil {
		t.Fatal(err)
	}
	hash := func(r *hetwire.RunResponse) string {
		return hetwire.ResultHash(hetwire.Result{Benchmark: r.Benchmark, Stats: *r.Stats})
	}
	for i, key := range []string{"key-a", "key-b"} {
		wantHit := i > 0
		got, hit, err := New(Options{BaseURL: ts.URL, TenantKey: key}).RunWire(context.Background(), req)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if hit != wantHit {
			t.Errorf("run %d: hit = %v, want %v", i, hit, wantHit)
		}
		if hash(got) != hash(want) {
			t.Errorf("run %d: ResultHash %s, in-process %s", i, hash(got), hash(want))
		}
	}
}

// TestRunWireRejectsJSON: a 200 answer that is not a wire frame is an error
// naming its content type, not a silent JSON decode.
func TestRunWireRejectsJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"benchmark":"gzip","model":"I","ipc":1.5}`))
	}))
	t.Cleanup(ts.Close)
	cl := New(Options{BaseURL: ts.URL})
	resp, _, err := cl.RunWire(context.Background(), &hetwire.RunRequest{Benchmark: "gzip", N: 4000})
	if err == nil || !strings.Contains(err.Error(), "application/json") {
		t.Fatalf("RunWire on a JSON answer: resp %+v err %v, want an error naming application/json", resp, err)
	}
}
