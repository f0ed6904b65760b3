package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hetwire"
)

// --- cache unit tests ---

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(30) // room for three 10-byte bodies
	body := func(i int) []byte { return []byte(fmt.Sprintf("body-%05d", i)) }
	put := func(key string, i int) {
		t.Helper()
		if _, hit, err := c.Do(context.Background(), key, func() ([]byte, error) { return body(i), nil }); hit || err != nil {
			t.Fatalf("Do(%s) hit=%t err=%v", key, hit, err)
		}
	}
	put("a", 1)
	put("b", 2)
	put("c", 3)
	if _, ok := c.lookup("a"); !ok { // touch a -> b becomes LRU
		t.Fatal("a missing before eviction")
	}
	put("d", 4) // evicts b
	if _, ok := c.lookup("b"); ok {
		t.Error("b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.lookup(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 30 {
		t.Errorf("stats = %+v", st)
	}

	// Oversized bodies bypass storage instead of flushing the cache.
	if _, _, err := c.Do(context.Background(), "huge", func() ([]byte, error) { return make([]byte, 100), nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.lookup("huge"); ok {
		t.Error("oversized body was stored")
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Errorf("oversized insert disturbed the cache: %+v", st)
	}
}

// TestCachePanickingFillReleasesKey: a fill that panics must not wedge its
// key. The panic reaches the filling caller, a waiter coalesced onto the
// panicking flight gets an error instead of waiting out its deadline, and
// the next Do for the key runs its own compute at once.
func TestCachePanickingFillReleasesKey(t *testing.T) {
	c := NewCache(1 << 20)
	// A wedged key holds every later caller for its whole context; 2s is far
	// beyond what a released key takes, so a wedge fails fast.
	const wedge = 2 * time.Second
	filling := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "k", func() ([]byte, error) {
			close(filling)
			<-release
			panic("simulator bug")
		})
	}()
	<-filling

	type result struct {
		body []byte
		hit  bool
		err  error
	}
	waiter := make(chan result, 1)
	waiterComputed := false
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), wedge)
		defer cancel()
		body, hit, err := c.Do(ctx, "k", func() ([]byte, error) {
			waiterComputed = true
			return []byte("waiter"), nil
		})
		waiter <- result{body, hit, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the in-flight fill")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if r := <-recovered; r != "simulator bug" {
		t.Errorf("filling caller recovered %v, want the fill's panic re-raised", r)
	}
	w := <-waiter
	if w.err == nil || isContextError(w.err) || !strings.Contains(w.err.Error(), "panicked") {
		t.Errorf("coalesced waiter got body=%q err=%v, want an error naming the panic", w.body, w.err)
	}
	if waiterComputed {
		t.Error("coalesced waiter ran its own compute")
	}

	ctx, cancel := context.WithTimeout(context.Background(), wedge)
	defer cancel()
	start := time.Now()
	computed := false
	body, hit, err := c.Do(ctx, "k", func() ([]byte, error) {
		computed = true
		return []byte("fresh"), nil
	})
	if err != nil || hit || !computed || string(body) != "fresh" {
		t.Fatalf("Do after the panic: body=%q hit=%t computed=%t err=%v after %s, want a fresh compute",
			body, hit, computed, err, time.Since(start).Round(time.Millisecond))
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 0 || st.Coalesced != 1 {
		t.Errorf("stats = %+v, want the fresh body stored after two fills, and only the waiter counted", st)
	}
}

func TestCacheCoalescesConcurrentComputes(t *testing.T) {
	c := NewCache(1 << 20)
	var computes int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-gate
				return []byte("result"), nil
			})
			if err != nil || string(body) != "result" {
				t.Errorf("Do = %q, %v", body, err)
			}
			if hit {
				mu.Lock()
				hits++
				mu.Unlock()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the goroutines pile onto the flight
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Errorf("compute ran %d times, want 1", computes)
	}
	if hits != 7 {
		t.Errorf("%d callers coalesced, want 7", hits)
	}
	if st := c.Stats(); st.Misses != 0 || st.Coalesced != 7 {
		t.Errorf("stats = %+v, want 7 coalesced and no miss (admission counts misses)", st)
	}
}

// --- HTTP helpers ---

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		getJSON(t, base+"/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metricValue extracts one sample (with optional label selector) from a
// Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// --- the acceptance concurrency test: 32 jobs, 4 workers ---

func TestConcurrentJobsDedupAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})
	benches := []string{
		"gzip", "gcc", "mcf", "mesa", "twolf", "swim", "art", "vpr",
		"parser", "bzip2", "crafty", "eon", "gap", "vortex", "applu", "lucas",
	}
	// 16 distinct requests submitted twice each = 32 jobs; every duplicate
	// must be deduplicated (coalesced onto an in-flight run or served from
	// the cache) rather than re-simulated.
	ids := make([]string, 0, 32)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, b := range benches {
			wg.Add(1)
			go func(b string) {
				defer wg.Done()
				resp, body := postJSON(t, ts.URL+"/v1/jobs",
					map[string]any{"benchmark": b, "n": 20000})
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit %s: %d %s", b, resp.StatusCode, body)
					return
				}
				var st JobStatus
				if err := json.Unmarshal(body, &st); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids = append(ids, st.ID)
				mu.Unlock()
			}(b)
		}
	}
	wg.Wait()
	if len(ids) != 32 {
		t.Fatalf("submitted %d jobs, want 32", len(ids))
	}
	for _, id := range ids {
		st := waitTerminal(t, ts.URL, id, 60*time.Second)
		if st.State != StateDone {
			t.Errorf("job %s finished %s: %s", id, st.State, st.Error)
		}
		if st.IPC <= 0 {
			t.Errorf("job %s reported IPC %v", id, st.IPC)
		}
	}

	cs := s.Cache().Stats()
	if cs.Hits+cs.Coalesced == 0 {
		t.Error("no cache hits across 16 duplicated requests")
	}
	if cs.Hits+cs.Misses != 32 {
		t.Errorf("admission counted %d hits and misses, want one per job (32)", cs.Hits+cs.Misses)
	}
	if sims := cs.Misses - cs.Coalesced; sims != 16 {
		t.Errorf("simulated %d distinct requests, want 16 (dedup failed)", sims)
	}

	text := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, `hetwired_jobs_total{state="done"}`); got != 32 {
		t.Errorf("done jobs metric = %v, want 32", got)
	}
	if got := metricValue(t, text, `hetwired_jobs{state="queued"}`); got != 0 {
		t.Errorf("queued gauge = %v after completion", got)
	}
	if got := metricValue(t, text, `hetwired_jobs{state="running"}`); got != 0 {
		t.Errorf("running gauge = %v after completion", got)
	}
	if got := metricValue(t, text, "hetwired_queue_depth"); got != 0 {
		t.Errorf("queue depth = %v after completion", got)
	}
	if got := metricValue(t, text, "hetwired_jobs_submitted_total"); got != 32 {
		t.Errorf("submitted total = %v, want 32", got)
	}
	hits := metricValue(t, text, "hetwired_cache_hits_total") +
		metricValue(t, text, "hetwired_cache_coalesced_total")
	if hits == 0 {
		t.Error("metrics report zero cache hits")
	}
	if got := metricValue(t, text, "hetwired_simulated_instructions_total"); got != 16*20000 {
		t.Errorf("simulated instructions = %v, want %d", got, 16*20000)
	}
	if got := metricValue(t, text, "hetwired_workers"); got != 4 {
		t.Errorf("workers gauge = %v, want 4", got)
	}
}

// --- synchronous endpoint + cache identity ---

func TestRunSyncIdenticalBodyOnHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := map[string]any{"benchmark": "gzip", "model": "VII", "n": 15000}
	resp1, body1 := postJSON(t, ts.URL+"/v1/run", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Hetwired-Cache"); got != "miss" {
		t.Errorf("first run cache header = %q, want miss", got)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Hetwired-Cache"); got != "hit" {
		t.Errorf("second run cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit body differs from the original response")
	}
	var out struct {
		Benchmark string  `json:"benchmark"`
		Model     string  `json:"model"`
		IPC       float64 `json:"ipc"`
	}
	if err := json.Unmarshal(body1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Benchmark != "gzip" || out.Model != "Model-VII" || out.IPC <= 0 {
		t.Errorf("response = %+v", out)
	}

	// The same machine expressed through a config document must hit too:
	// cache keys are content-addressed over the resolved config.
	resp3, _ := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"benchmark": "gzip", "n": 15000,
			"config": map[string]any{"model": "VII", "clusters": 4}})
	if got := resp3.Header.Get("X-Hetwired-Cache"); got != "hit" {
		t.Errorf("equivalent config-document request = %q, want hit", got)
	}
}

// TestOverrideRunAfterBaseIsMiss: a config with a core override is a
// different machine from its base model. Run right after the base, it
// misses the result cache and the machine pool, and answers what
// RunRequest.Execute answers for it.
func TestOverrideRunAfterBaseIsMiss(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	base := map[string]any{"benchmark": "mcf", "n": 20000, "config": map[string]any{"model": "I"}}
	if resp, body := postJSON(t, ts.URL+"/v1/run", base); resp.StatusCode != http.StatusOK {
		t.Fatalf("base run: %d %s", resp.StatusCode, body)
	}
	doc := json.RawMessage(`{"model":"I","core_overrides":{"l2_latency":200}}`)
	resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"benchmark": "mcf", "n": 20000, "config": doc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override run: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Hetwired-Cache"); got != "miss" {
		t.Errorf("override run after base: cache header = %q, want miss", got)
	}
	var got hetwire.RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := (&hetwire.RunRequest{Benchmark: "mcf", N: 20000, Config: doc}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got.IPC != want.IPC {
		t.Errorf("override IPC after base = %v, Execute gives %v", got.IPC, want.IPC)
	}
}

func TestMultiprogrammedRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/run",
		map[string]any{"benchmarks": []string{"gzip", "swim"}, "clusters": 16, "n": 10000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multi run: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Threads []struct {
			Benchmark string  `json:"benchmark"`
			IPC       float64 `json:"ipc"`
		} `json:"threads"`
		IPC float64 `json:"ipc"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Threads) != 2 || out.IPC <= 0 {
		t.Fatalf("response = %s", body)
	}
	if out.Threads[0].Benchmark != "gzip" || out.Threads[1].Benchmark != "swim" {
		t.Errorf("thread labels = %+v", out.Threads)
	}
}

// --- batch studies share the cache with single runs ---

func TestSweepSharesCacheWithSingleRuns(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	// Pre-warm one point via the sync endpoint.
	resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{"benchmark": "gzip", "model": "I", "n": 12000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d %s", resp.StatusCode, body)
	}
	study := batchBody([]string{"I", "VII"}, []string{"gzip"}, 12000, 0)
	resp, body = postJSON(t, ts.URL+"/v1/jobs", study)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, ts.URL, st.ID, 60*time.Second)
	if final.State != StateDone {
		t.Fatalf("batch finished %s: %s", final.State, final.Error)
	}
	if final.Batch == nil || len(final.Batch.Points) != 2 {
		t.Fatalf("batch points = %+v, want 2", final.Batch)
	}
	if !final.Batch.Points[0].Cached || final.Batch.CacheHits < 1 {
		t.Errorf("pre-warmed point not served from cache: %+v", final.Batch)
	}
	if final.Batch.Points[1].Cached {
		t.Errorf("cold point reported cached: %+v", final.Batch.Points[1])
	}
	// Re-running the identical study must be all hits.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", study)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch resubmit: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	final = waitTerminal(t, ts.URL, st.ID, 60*time.Second)
	if !final.CacheHit {
		t.Error("identical batch not fully cached")
	}
	if cs := s.Cache().Stats(); cs.Misses != 2 {
		t.Errorf("distinct simulations = %d, want 2", cs.Misses)
	}
}

// --- cancellation ---

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Occupy the single worker, then queue a victim behind it.
	_, blockerRaw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gcc", "n": 400000})
	var blocker JobStatus
	if err := json.Unmarshal(blockerRaw, &blocker); err != nil {
		t.Fatal(err)
	}
	_, victimRaw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "mcf", "n": 400000})
	var victim JobStatus
	if err := json.Unmarshal(victimRaw, &victim); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitTerminal(t, ts.URL, victim.ID, 30*time.Second)
	if st.State != StateCancelled {
		t.Errorf("victim state = %s, want cancelled", st.State)
	}
	if st.WallMS != 0 {
		t.Errorf("cancelled-in-queue job reports wall time %v", st.WallMS)
	}
	if st := waitTerminal(t, ts.URL, blocker.ID, 60*time.Second); st.State != StateDone {
		t.Errorf("blocker state = %s: %s", st.State, st.Error)
	}
}

// --- overload, drain, validation ---

func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	// One running + one queued fills the system; the third gets 429 with a
	// Retry-After hint sized from queue depth x observed mean job latency.
	sawBusy := false
	for i := 0; i < 8; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": 300000})
		if resp.StatusCode == http.StatusTooManyRequests {
			sawBusy = true
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Errorf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
			}
			break
		}
	}
	if !sawBusy {
		t.Error("queue never reported full")
	}
}

func TestDrainFinishesQueuedJobs(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		_, raw := postJSON(t, ts.URL+"/v1/jobs",
			map[string]any{"benchmark": "gzip", "n": 20000 + i*1000})
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Post-drain: submissions rejected, every accepted job terminal.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": 1000})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit = %d, want 503", resp.StatusCode)
	}
	for _, id := range ids {
		st := waitTerminal(t, ts.URL, id, time.Second)
		if st.State != StateDone {
			t.Errorf("job %s drained as %s", id, st.State)
		}
	}
	var health struct {
		Status string `json:"status"`
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&health); err != nil || health.Status != "draining" {
		t.Errorf("healthz body = %+v, %v", health, err)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []map[string]any{
		{"benchmark": "no-such-benchmark", "n": 1000},
		{"n": 1000}, // no workload
		{"benchmark": "gzip", "benchmarks": []string{"gcc"}, "n": 1000}, // both
		{"benchmark": "gzip", "model": "XI", "n": 1000},                 // bad model
		{"benchmark": "gzip", "clusters": 7, "n": 1000},                 // bad clusters
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	// A top-level "sweep" object is not a job shape: studies are
	// {"batch": {"sweep": ...}}. The body decodes as a run request naming no
	// workload, so it is a plain bad request.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"sweep": map[string]any{"models": []string{"I"}, "benchmarks": []string{"gzip"}, "ns": []uint64{1000}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("top-level sweep: status %d, body %s", resp.StatusCode, body)
	}
	var rej struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &rej); err != nil || rej.Reason != "bad_request" {
		t.Errorf("top-level sweep: reason %q (%v), want bad_request; body %s", rej.Reason, err, body)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected submissions created %d jobs: %+v", len(list.Jobs), list.Jobs)
	}
}

// TestOutOfBoundsConfigIsBadConfig: a config document whose core overrides
// exceed what the engine's calendars and wheels can hold, whose latency is
// negative, or whose worst memory access spans more than
// sched.MaxAccessSpan, is refused by ConfigFromJSON and by POST /v1/run as 400
// bad_config, before any job exists or any worker could panic or run out of
// memory. Table 1 and the largest in-bounds values stay accepted.
func TestOutOfBoundsConfigIsBadConfig(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, doc := range []string{
		`{"model":"I","core_overrides":{"fetch_width":1000}}`,
		`{"model":"I","core_overrides":{"fetch_width":256}}`,
		`{"model":"I","core_overrides":{"fetch_width":0}}`,
		`{"model":"I","core_overrides":{"issue_queue":300}}`,
		`{"model":"I","core_overrides":{"registers":300}}`,
		`{"model":"I","core_overrides":{"memory_latency":-300}}`,
		`{"model":"I","core_overrides":{"l2_latency":-1}}`,
		`{"model":"I","core_overrides":{"l1d_latency":-1}}`,
		`{"model":"I","core_overrides":{"rob":2000000000}}`,
		`{"model":"I","core_overrides":{"rob":8193}}`,
		`{"model":"I","core_overrides":{"memory_latency":2000000000}}`,
		`{"model":"I","latency_scale":1000000000}`,
		`{"model":"I","latency_scale":-5}`,
		`{"model":"VII","core_overrides":{"memory_latency":8000}}`,
		`{"model":"VII","core_overrides":{"memory_latency":2007}}`,
		`{"model":"VII","clusters":16,"core_overrides":{"memory_latency":1983}}`,
		`{"model":"VII","latency_scale":286}`,
		`{"model":"VII","clusters":16,"latency_scale":58}`,
	} {
		if _, err := hetwire.ConfigFromJSON([]byte(doc)); err == nil {
			t.Errorf("ConfigFromJSON accepted %s", doc)
		}
		resp, body := postJSON(t, ts.URL+"/v1/run", map[string]any{
			"benchmark": "gzip", "n": 2000, "config": json.RawMessage(doc),
		})
		var rej struct {
			Reason string `json:"reason"`
		}
		json.Unmarshal(body, &rej)
		if resp.StatusCode != http.StatusBadRequest || rej.Reason != hetwire.ReasonBadConfig {
			t.Errorf("POST /v1/run with %s: %d %q, want 400 %s (body %s)",
				doc, resp.StatusCode, rej.Reason, hetwire.ReasonBadConfig, body)
		}
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected configs created %d jobs: %+v", len(list.Jobs), list.Jobs)
	}
	if n := s.Metrics().JobsPanicked(); n != 0 {
		t.Errorf("%d jobs panicked", n)
	}
	for _, doc := range []string{
		`{"model":"I"}`,
		`{"model":"X","clusters":16}`,
		`{"model":"VII","core_overrides":{"rob":256,"fetch_width":4}}`,
		`{"model":"I","core_overrides":{"fetch_width":255,"issue_queue":255,"registers":255,"memory_latency":0}}`,
		`{"model":"VII","core_overrides":{"rob":8192}}`,
		`{"model":"VII","core_overrides":{"memory_latency":2006}}`,
		`{"model":"VII","clusters":16,"core_overrides":{"memory_latency":1982}}`,
		`{"model":"VII","latency_scale":285}`,
		`{"model":"VII","clusters":16,"latency_scale":57}`,
	} {
		if _, err := hetwire.ConfigFromJSON([]byte(doc)); err != nil {
			t.Errorf("ConfigFromJSON rejected %s: %v", doc, err)
		}
	}
}

func TestCatalogAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var cat struct {
		Benchmarks []string `json:"benchmarks"`
		Kernels    []string `json:"kernels"`
		Models     []string `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/catalog", &cat)
	if len(cat.Benchmarks) < 20 || len(cat.Kernels) == 0 || len(cat.Models) != 10 {
		t.Errorf("catalog = %d benchmarks, %d kernels, %d models",
			len(cat.Benchmarks), len(cat.Kernels), len(cat.Models))
	}
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("health = %+v", health)
	}
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"hetwired_up 1",
		"hetwired_http_requests_total",
		"hetwired_http_request_duration_seconds_bucket",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// --- concurrency stress ---

// TestConcurrentSubmitPollCancelStress hammers a 2-worker daemon with
// concurrent submitters, status pollers, job-list readers, cancellers and
// metrics scrapes, then drains while pollers are still running. Its value is
// under `go test -race` (which CI runs for the whole package): any unlocked
// shared state in the queue, job table, cache or metrics registry shows up
// here.
func TestConcurrentSubmitPollCancelStress(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 128})
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

	// post submits without test helpers so it is safe from any goroutine
	// (only Errorf, never FailNow, off the test goroutine).
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

	stopPolling := make(chan struct{})
	var pollers sync.WaitGroup
	for g := 0; g < 3; g++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stopPolling:
					return
				default:
				}
				for _, id := range snapshot() {
					if resp, err := http.Get(ts.URL + "/v1/jobs/" + id); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				for _, path := range []string{"/v1/jobs", "/v1/jobs?state=done", "/metrics", "/healthz"} {
					if resp, err := http.Get(ts.URL + path); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}

	// Cancellers chase the submitters, cancelling every third accepted job.
	// Cancellation racing completion is fine — both end terminal.
	stopCancel := make(chan struct{})
	var cancellers sync.WaitGroup
	cancellers.Add(1)
	go func() {
		defer cancellers.Done()
		seen := 0
		for {
			for _, id := range snapshot()[seen:] {
				seen++
				if seen%3 != 0 {
					continue
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			select {
			case <-stopCancel:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	benches := []string{"gzip", "gcc", "mcf", "swim"}
	var submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			for i := 0; i < 8; i++ {
				if i%4 == 3 {
					// Invalid request: must be rejected, never occupy a worker.
					if code, _ := post(map[string]any{"benchmark": "no-such-benchmark", "n": 1000}); code != http.StatusBadRequest {
						t.Errorf("invalid submit = %d, want 400", code)
					}
					continue
				}
				code, st := post(map[string]any{
					"benchmark": benches[(g+i)%len(benches)],
					"n":         2000 + 500*i + 16000*g, // distinct budgets defeat the result cache
				})
				switch code {
				case http.StatusAccepted:
					addID(st.ID)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Queue full or draining: acceptable backpressure.
				default:
					t.Errorf("submit status = %d", code)
				}
			}
		}(g)
	}

	submitters.Wait()
	close(stopCancel)
	cancellers.Wait()

	// Drain while the pollers are still hitting every endpoint.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(stopPolling)
	pollers.Wait()

	accepted := snapshot()
	if len(accepted) == 0 {
		t.Fatal("no jobs accepted; stress exercised nothing")
	}
	for _, id := range accepted {
		st := waitTerminal(t, ts.URL, id, 5*time.Second)
		if st.State != StateDone && st.State != StateCancelled {
			t.Errorf("job %s ended as %s: %s", id, st.State, st.Error)
		}
	}
}
