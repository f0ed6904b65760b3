package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"hetwire/internal/faultinject"
)

func mustDecode(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode: %v (%s)", err, raw)
	}
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func mustInjector(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	in, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return in
}

// TestWorkerPanicContainment: a panic escaping a job must not kill the
// daemon — the job finishes failed with the stack trace in failure_log, a
// replacement worker spawns, and the next job is served normally.
func TestWorkerPanicContainment(t *testing.T) {
	in := mustInjector(t, "seed=5,panic=1,panic.max=1")
	s, ts := newTestServer(t, Options{Workers: 1, Faults: in})

	_, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gcc", "n": 8000})
	var victim JobStatus
	mustDecode(t, raw, &victim)
	st := waitTerminal(t, ts.URL, victim.ID, 30*time.Second)
	if st.State != StateFailed {
		t.Fatalf("panicked job state = %s, want failed (%s)", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "worker panic") {
		t.Errorf("error = %q, want a worker-panic message", st.Error)
	}
	if !strings.Contains(st.FailureLog, "goroutine") {
		t.Errorf("failure_log does not look like a stack trace:\n%s", st.FailureLog)
	}

	// The pool must have respawned: the single worker serves the next job.
	_, raw = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": 8000})
	var next JobStatus
	mustDecode(t, raw, &next)
	if st := waitTerminal(t, ts.URL, next.ID, 30*time.Second); st.State != StateDone {
		t.Errorf("post-panic job state = %s: %s", st.State, st.Error)
	}
	if got := s.Metrics().JobsPanicked(); got != 1 {
		t.Errorf("JobsPanicked = %d, want 1", got)
	}
	if got := s.Metrics().WorkersRespawned(); got != 1 {
		t.Errorf("WorkersRespawned = %d, want 1", got)
	}
	text := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, "hetwired_jobs_panicked_total"); got != 1 {
		t.Errorf("jobs_panicked_total = %v, want 1", got)
	}
	if got := metricValue(t, text, "hetwired_workers_respawned_total"); got != 1 {
		t.Errorf("workers_respawned_total = %v, want 1", got)
	}
	if got := metricValue(t, text, "hetwired_workers"); got != 1 {
		t.Errorf("workers gauge = %v after respawn, want 1", got)
	}
}

// TestJobDeadlineExpires: a per-request deadline_ms bounds the job's wall
// clock; an expired job fails with an explicit deadline message, not a bare
// context error, and reports its budget.
func TestJobDeadlineExpires(t *testing.T) {
	in := mustInjector(t, "seed=2,slow=1,slowms=300")
	_, ts := newTestServer(t, Options{Workers: 1, Faults: in})
	_, raw := postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"benchmark": "gcc", "n": 8000, "deadline_ms": 100})
	var st JobStatus
	mustDecode(t, raw, &st)
	if st.DeadlineMS != 100 {
		t.Errorf("deadline_ms echoed as %v, want 100", st.DeadlineMS)
	}
	final := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed (%s)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "deadline exceeded") || !strings.Contains(final.Error, "100ms") {
		t.Errorf("error = %q, want a deadline message naming the 100ms budget", final.Error)
	}
}

// TestDeadlineOverrideCapped: a request asking for more than MaxDeadline is
// clamped, not honored.
func TestDeadlineOverrideCapped(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxDeadline: 2 * time.Second})
	_, raw := postJSON(t, ts.URL+"/v1/jobs",
		map[string]any{"benchmark": "gzip", "n": 4000, "deadline_ms": 3_600_000})
	var st JobStatus
	mustDecode(t, raw, &st)
	if st.DeadlineMS != 2000 {
		t.Errorf("deadline_ms = %v, want clamped to 2000", st.DeadlineMS)
	}
}

// TestCancelRunningJobFreesWorker: cancelling a job mid-simulation must stop
// the simulator within one ctx-check interval and return the worker to the
// pool promptly — proven by a follow-up job completing on the same single
// worker. This is the test CI runs under -race.
func TestCancelRunningJobFreesWorker(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gcc", "n": 20_000_000})
	var big JobStatus
	mustDecode(t, raw, &big)

	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+big.ID, &cur)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("big job never started: %s", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+big.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancelled := time.Now()
	st := waitTerminal(t, ts.URL, big.ID, 10*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("big job state = %s, want cancelled", st.State)
	}
	if took := time.Since(cancelled); took > 5*time.Second {
		t.Errorf("cancellation took %s to land; simulator is not honoring ctx", took)
	}

	_, raw = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "gzip", "n": 5000})
	var small JobStatus
	mustDecode(t, raw, &small)
	if st := waitTerminal(t, ts.URL, small.ID, 10*time.Second); st.State != StateDone {
		t.Errorf("follow-up job state = %s: %s (worker not freed?)", st.State, st.Error)
	}
}

// TestCacheCorruptionSelfHeals: a corrupted cache entry is detected by its
// checksum on the next hit, dropped, recomputed, and counted — the caller
// still gets a correct body.
func TestCacheCorruptionSelfHeals(t *testing.T) {
	in := mustInjector(t, "seed=4,corrupt=1")
	s, ts := newTestServer(t, Options{Workers: 1, Faults: in})
	req := map[string]any{"benchmark": "gzip", "n": 9000}
	resp1, body1 := postJSON(t, ts.URL+"/v1/run", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/run", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp2.StatusCode, body2)
	}
	// The poisoned entry must not be served: the hit fails verification and
	// the request recomputes (reported as a miss), bit-identical to the first.
	if got := resp2.Header.Get("X-Hetwired-Cache"); got != "miss" {
		t.Errorf("second run cache header = %q, want miss (corrupt entry dropped)", got)
	}
	if string(body1) != string(body2) {
		t.Error("recomputed body differs from the original")
	}
	if cs := s.Cache().Stats(); cs.Corrupt < 1 {
		t.Errorf("corruption drops = %d, want >= 1", cs.Corrupt)
	}
	text := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, "hetwired_cache_corrupt_dropped_total"); got < 1 {
		t.Errorf("corrupt_dropped_total = %v, want >= 1", got)
	}
}

// TestIdempotentSubmitReplay: resubmitting under the same Idempotency-Key
// returns the job the first attempt created instead of enqueueing a
// duplicate.
func TestIdempotentSubmitReplay(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	post := func(key string) (*http.Response, JobStatus) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"benchmark":"mcf","n":7000}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		decodeBody(t, resp, &st)
		return resp, st
	}
	resp1, st1 := post("k1")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	resp2, st2 := post("k1")
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("replay status = %d, want 200", resp2.StatusCode)
	}
	if resp2.Header.Get("X-Hetwired-Idempotent") != "replay" {
		t.Error("replay not flagged via X-Hetwired-Idempotent")
	}
	if st2.ID != st1.ID {
		t.Errorf("replay created a new job: %s vs %s", st2.ID, st1.ID)
	}
	resp3, st3 := post("k2")
	if resp3.StatusCode != http.StatusAccepted || st3.ID == st1.ID {
		t.Errorf("distinct key reused job %s (status %d)", st3.ID, resp3.StatusCode)
	}
	text := scrapeMetrics(t, ts.URL)
	if got := metricValue(t, text, "hetwired_jobs_submitted_total"); got != 2 {
		t.Errorf("submitted_total = %v, want 2 (replay must not enqueue)", got)
	}
	waitTerminal(t, ts.URL, st1.ID, 30*time.Second)
	waitTerminal(t, ts.URL, st3.ID, 30*time.Second)
}

// TestIdempotentReplayKeepsJobRecord: a replay hands back a retained job
// that the replayer is about to poll, so the job moves to the back of the
// retention order. With maxJobs terminal records retained and the replayed
// job the oldest, the next submission must prune another record.
func TestIdempotentReplayKeepsJobRecord(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	run := map[string]any{"benchmark": "gzip", "n": 2000}
	_, raw := postAs(t, ts.URL+"/v1/jobs", "", "replay-me", run)
	var first JobStatus
	mustDecode(t, raw, &first)
	waitTerminal(t, ts.URL, first.ID, 30*time.Second)
	for i := 1; i < maxJobs; i++ { // cached runs: each record is born done
		if resp, body := postJSON(t, ts.URL+"/v1/jobs", run); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filler run %d: %d %s", i, resp.StatusCode, body)
		}
	}

	resp, raw := postAs(t, ts.URL+"/v1/jobs", "", "replay-me", run)
	var replay JobStatus
	mustDecode(t, raw, &replay)
	if resp.Header.Get("X-Hetwired-Idempotent") != "replay" || replay.ID != first.ID {
		t.Fatalf("replay answered job %s (%q), want a replay of %s",
			replay.ID, resp.Header.Get("X-Hetwired-Idempotent"), first.ID)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", run); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run after replay: %d %s", resp.StatusCode, body)
	}
	got, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("GET replayed job %s after one more submission: %d, want 200", first.ID, got.StatusCode)
	}
}

// TestZeroFaultInjectorDeterminism: a configured injector whose rates are
// all zero must be exactly inert — a daemon wired with it serves bodies
// byte-identical to a daemon with no injector at all. This is the guard
// that lets the fault harness stay in the production code path.
func TestZeroFaultInjectorDeterminism(t *testing.T) {
	zero := mustInjector(t, "seed=1,panic=0,slow=0,cancel=0,corrupt=0")
	_, tsPlain := newTestServer(t, Options{Workers: 1})
	_, tsZero := newTestServer(t, Options{Workers: 1, Faults: zero})
	for _, req := range []map[string]any{
		{"benchmark": "gzip", "model": "I", "n": 16000},
		{"benchmark": "mcf", "model": "V", "n": 16000},
		{"benchmarks": []string{"gcc", "swim"}, "clusters": 16, "n": 8000},
	} {
		respA, bodyA := postJSON(t, tsPlain.URL+"/v1/run", req)
		respB, bodyB := postJSON(t, tsZero.URL+"/v1/run", req)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("statuses %d/%d for %v", respA.StatusCode, respB.StatusCode, req)
		}
		if string(bodyA) != string(bodyB) {
			t.Errorf("zero-fault injector perturbed the result for %v", req)
		}
	}
	for _, p := range faultinject.Points() {
		if zero.Fired(p) != 0 {
			t.Errorf("zero-rate injector fired %q", p)
		}
	}
}
