package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/wire"
)

// batchBody builds a small batch submission over the sweep axes.
func batchBody(models, benches []string, n uint64, parallelism int) map[string]any {
	return map[string]any{
		"batch": map[string]any{
			"sweep": map[string]any{
				"models":     models,
				"benchmarks": benches,
				"ns":         []uint64{n},
			},
			"parallelism": parallelism,
		},
	}
}

// TestBatchJobLifecycle: submit -> poll -> done, with deterministic scenario
// order in the merged result, per-scenario progress in the status, and a
// resubmission served entirely from the result cache.
func TestBatchJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := batchBody([]string{"I", "V"}, []string{"gcc", "mcf"}, 3_000, 0)

	resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, raw)
	}
	var sub JobStatus
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Kind != "batch" {
		t.Fatalf("kind = %q, want batch", sub.Kind)
	}
	if sub.Batch == nil || sub.Batch.Total != 4 {
		t.Fatalf("submission status lacks batch progress: %+v", sub.Batch)
	}

	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if st.Batch == nil || st.Batch.Completed != 4 || st.Batch.Failed != 0 {
		t.Fatalf("final batch progress = %+v", st.Batch)
	}
	if len(st.Batch.Points) != 4 {
		t.Fatalf("full status has %d points, want 4", len(st.Batch.Points))
	}
	for i, pt := range st.Batch.Points {
		if pt.State != "done" || pt.Index != i {
			t.Errorf("point %d = %+v", i, pt)
		}
	}

	var out hetwire.BatchResponse
	if err := json.Unmarshal(st.Result, &out); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if out.Completed != 4 || out.Failed != 0 {
		t.Fatalf("batch response completed=%d failed=%d", out.Completed, out.Failed)
	}
	// Expansion order: benchmark-major over the sweep axes.
	wantOrder := []string{"gcc/I", "gcc/V", "mcf/I", "mcf/V"}
	for i, sc := range out.Scenarios {
		if got := sc.Request.Benchmark + "/" + sc.Request.Model; got != wantOrder[i] {
			t.Errorf("scenario %d = %s, want %s", i, got, wantOrder[i])
		}
		if sc.Response == nil || sc.Response.IPC <= 0 {
			t.Errorf("scenario %d missing response", i)
		}
	}
	spanNames := map[string]bool{}
	for _, sp := range st.Spans {
		spanNames[sp.Name] = true
	}
	for _, want := range []string{spanQueueWait, spanCacheLookup, spanSimRun} {
		if !spanNames[want] {
			t.Errorf("batch job missing %s span: %v", want, st.Spans)
		}
	}

	// Resubmit: every scenario must come from the result cache.
	_, raw2 := postJSON(t, ts.URL+"/v1/jobs", body)
	var sub2 JobStatus
	if err := json.Unmarshal(raw2, &sub2); err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, ts.URL, sub2.ID, 30*time.Second)
	if !st2.CacheHit {
		t.Error("resubmitted batch not reported as a full cache hit")
	}
	var out2 hetwire.BatchResponse
	if err := json.Unmarshal(st2.Result, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.CacheHits != 4 {
		t.Errorf("resubmission cache hits = %d, want 4", out2.CacheHits)
	}
	for i := range out.Scenarios {
		a, b := out.Scenarios[i].Response, out2.Scenarios[i].Response
		if a.IPC != b.IPC || a.Cycles != b.Cycles {
			t.Errorf("scenario %d drifted across cached resubmission", i)
		}
	}
}

// TestBatchRejectedTooLarge: a batch expanding past hetwire.MaxSweepPoints
// is rejected with the machine-readable reason, and the rejection is
// counted in /metrics.
func TestBatchRejectedTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	ns := make([]uint64, hetwire.MaxSweepPoints+1)
	for i := range ns {
		ns[i] = 2_000 + uint64(i)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"batch": map[string]any{"sweep": map[string]any{
			"models": []string{"I"}, "benchmarks": []string{"gcc"}, "ns": ns,
		}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "limit") {
		t.Errorf("error does not name the limit: %s", raw)
	}
	if !strings.Contains(string(raw), `"reason": "batch_too_large"`) &&
		!strings.Contains(string(raw), `"reason":"batch_too_large"`) {
		t.Errorf("rejection body lacks reason code: %s", raw)
	}
	metrics := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, metrics, `hetwired_jobs_rejected_total{reason="batch_too_large"}`); v != 1 {
		t.Errorf("rejected_total{batch_too_large} = %v, want 1", v)
	}
}

// TestBatchRejectedShapes: invalid batch shapes fail admission with their
// specific codes.
func TestBatchRejectedShapes(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name   string
		body   map[string]any
		reason string
	}{
		{"empty batch", map[string]any{"batch": map[string]any{}}, "bad_request"},
		{"unknown benchmark", map[string]any{
			"batch": map[string]any{"scenarios": []map[string]any{{"benchmark": "bogus"}}},
		}, "unknown_benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", resp.StatusCode, raw)
			}
			if !strings.Contains(string(raw), tc.reason) {
				t.Errorf("body lacks reason %q: %s", tc.reason, raw)
			}
		})
	}
}

// TestBatchCancelMidRun: cancelling a running batch job resolves it as
// cancelled without waiting for the remaining scenarios.
func TestBatchCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	// Large-ish scenarios so the job is observably running when we cancel.
	_, raw := postJSON(t, ts.URL+"/v1/jobs",
		batchBody([]string{"I", "V", "VIII"}, []string{"gcc", "mcf", "swim"}, 400_000, 1))
	var sub JobStatus
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitTerminal(t, ts.URL, sub.ID, 30*time.Second)
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
}

// TestBatchSubmitCancelStress is the -race stress: concurrent submitters and
// cancellers hammering small batch jobs must leave the daemon consistent —
// every job terminal, no data races, no deadlocks.
func TestBatchSubmitCancelStress(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 256})
	const submitters = 8
	var wg sync.WaitGroup
	ids := make(chan string, submitters*4)
	for w := 0; w < submitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				// Vary N so some submissions share cache entries and some don't.
				n := uint64(1_000 + 500*((w+k)%3))
				resp, raw := postJSON(t, ts.URL+"/v1/jobs",
					batchBody([]string{"I"}, []string{"gcc", "mcf"}, n, 2))
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: %d %s", resp.StatusCode, raw)
					return
				}
				var sub JobStatus
				if err := json.Unmarshal(raw, &sub); err != nil {
					t.Error(err)
					return
				}
				ids <- sub.ID
			}
		}()
	}
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() { // cancel every other job as it appears
		defer cwg.Done()
		i := 0
		for id := range ids {
			if i%2 == 0 {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			i++
			// Every job must reach a terminal state regardless of cancellation.
			st := waitTerminal(t, ts.URL, id, 60*time.Second)
			if !st.State.Terminal() {
				t.Errorf("job %s not terminal: %s", id, st.State)
			}
			if st.State == StateDone && st.Batch != nil && st.Batch.Completed != st.Batch.Total {
				t.Errorf("done job %s with partial batch: %+v", id, st.Batch)
			}
		}
	}()
	wg.Wait()
	close(ids)
	cwg.Wait()
}

// TestBatchProgressConcurrentPublish drives one batch record from every side
// at once: publishers race on the same indices, streamers wait for every
// frame, status snapshots read the points, and the terminal fill resolves
// the indices nobody published. The first frame published for an index is
// the one every reader sees, each index is counted once, and the fill
// leaves published frames alone.
func TestBatchProgressConcurrentPublish(t *testing.T) {
	const n = 64
	reqs := make([]hetwire.RunRequest, n)
	for i := range reqs {
		reqs[i] = hetwire.RunRequest{Benchmark: "gzip", Model: "I", N: uint64(1000 + i)}
	}
	p := newBatchProgress(reqs, nil, nil)
	result, err := wire.EncodeRunResult(&hetwire.RunResponse{IPC: 1.5})
	if err != nil {
		t.Fatal(err)
	}

	var streamers, poller sync.WaitGroup
	streamed := make([][][]byte, 2)
	for r := range streamed {
		streamers.Add(1)
		go func(r int) {
			defer streamers.Done()
			for i := 0; i < n; i++ {
				streamed[r] = append(streamed[r], p.await(context.Background(), i))
			}
		}(r)
	}
	stop := make(chan struct{})
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.snapshot(true)
			if st.Completed+st.Failed > st.Total || len(st.Points) != n {
				t.Errorf("snapshot out of bounds: %+v", st)
				return
			}
		}
	}()

	// Every even index is published twice, once as a result and once as an
	// error, by racing publishers; odd indices are left to the fill.
	var publishers sync.WaitGroup
	for w := 0; w < 4; w++ {
		publishers.Add(1)
		go func(w int) {
			defer publishers.Done()
			for i := 2 * (w % 2); i < n; i += 4 {
				if w < 2 {
					p.publish(i, result, w == 0, nil)
				} else {
					p.publish(i, nil, false, errors.New("lost the race"))
				}
			}
		}(w)
	}
	publishers.Wait()
	p.resolveRest()
	streamers.Wait()
	close(stop)
	poller.Wait()

	st := p.snapshot(true)
	if st.Total != n || st.Completed+st.Failed != n || st.Failed < n/2 {
		t.Fatalf("counts %+v, want every index resolved once and every odd index failed", st)
	}
	for i := 0; i < n; i++ {
		fr := p.await(context.Background(), i)
		for r := range streamed {
			if !bytes.Equal(streamed[r][i], fr) {
				t.Fatalf("streamer %d saw another frame for index %d than the one kept", r, i)
			}
		}
		sc, err := wire.DecodeScenario(fr)
		if err != nil || sc.Index != i {
			t.Fatalf("index %d: frame for %d, err %v", i, sc.Index, err)
		}
		pt := st.Points[i]
		switch {
		case i%2 == 1:
			if sc.Reason != "cancelled" || pt.State != "failed" || pt.Error != context.Canceled.Error() {
				t.Errorf("unpublished index %d: frame reason %q, point %+v; want the cancelled fill", i, sc.Reason, pt)
			}
		case sc.Error != "":
			if pt.State != "failed" || pt.Error != "lost the race" {
				t.Errorf("index %d: point %+v disagrees with its error frame", i, pt)
			}
		default:
			if pt.State != "done" || pt.IPC != 1.5 || pt.Cached != sc.Cached {
				t.Errorf("index %d: point %+v disagrees with its result frame (cached %v)", i, pt, sc.Cached)
			}
		}
	}
}
