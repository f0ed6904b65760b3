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

	"hetwire"
	"hetwire/internal/cluster"
	"hetwire/internal/tenant"
	"hetwire/internal/wire"
)

// cachedRun executes req in process and stores its result frame in s's
// cache under the request's key, as a finished run would have. It returns
// the frame and its JSON view.
func cachedRun(t *testing.T, s *Server, req hetwire.RunRequest) (frame, view []byte) {
	t.Helper()
	resp, err := req.Execute()
	if err != nil {
		t.Fatal(err)
	}
	frame, err = wire.EncodeRunResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	s.Cache().Put(key, frame)
	if view, err = json.Marshal(resp); err != nil {
		t.Fatal(err)
	}
	return frame, view
}

// hitCounters is what one cache hit must move by exactly one.
type hitCounters struct {
	submitted, done, hits, sloGood float64
	tenantSubmitted, tenantDone    uint64
}

func readHitCounters(t *testing.T, base string) hitCounters {
	t.Helper()
	text := scrapeMetrics(t, base)
	c := hitCounters{
		submitted: metricValue(t, text, "hetwired_jobs_submitted_total"),
		done:      metricValue(t, text, `hetwired_jobs_total{state="done"}`),
		hits:      metricValue(t, text, "hetwired_cache_hits_total"),
	}
	// The SLO series appear with the tenant's first verdict.
	if strings.Contains(text, `hetwired_slo_requests_total{tenant="gold",verdict="good"}`) {
		c.sloGood = metricValue(t, text, `hetwired_slo_requests_total{tenant="gold",verdict="good"}`)
	}
	var usage struct {
		Tenants []tenant.Snapshot `json:"tenants"`
	}
	getJSON(t, base+"/v1/tenants/usage", &usage)
	for _, sn := range usage.Tenants {
		if sn.Name == "gold" {
			c.tenantSubmitted, c.tenantDone = sn.Submitted, sn.Done
		}
	}
	return c
}

// TestCacheHitsBypassFullQueue: a cached run is answered at submission, so
// a daemon whose one worker is busy and whose one queue slot is taken still
// serves it at once — binary, JSON and async — where every other
// submission gets 429 queue_full. Each hit moves the submitted, done and
// cache-hit counters, the tenant's ledgers and its SLO verdict by exactly
// one.
func TestCacheHitsBypassFullQueue(t *testing.T) {
	cfg := &tenant.Config{Tenants: []tenant.Spec{
		{Name: "gold", Key: "key-gold", Weight: 1, SLOMS: 60_000, SLOTargetPct: 99},
	}}
	in := mustInjector(t, "seed=3,slow=1,slowms=5000")
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Faults: in, Tenants: cfg})
	run := hetwire.RunRequest{Benchmark: "gzip", Model: "VII", N: 4000}
	frame, view := cachedRun(t, s, run)

	// Saturate: a slow miss on the worker, a second one in the queue slot.
	var blockers []string
	submitMiss := func(n int) int {
		resp, raw := postAs(t, ts.URL+"/v1/jobs", "key-gold", "", map[string]any{"benchmark": "mcf", "n": n})
		if resp.StatusCode == http.StatusAccepted {
			var st JobStatus
			mustDecode(t, raw, &st)
			blockers = append(blockers, st.ID)
		}
		return resp.StatusCode
	}
	t.Cleanup(func() {
		for _, id := range blockers {
			cancelJob(t, ts.URL, id)
		}
	})
	if code := submitMiss(3000); code != http.StatusAccepted {
		t.Fatalf("first blocker = %d", code)
	}
	gold, _ := s.tenants.Lookup("key-gold")
	waitFor(t, 5*time.Second, func() bool { return gold.Snapshot().InFlight == 1 }, "the first blocker to run")
	if code := submitMiss(3001); code != http.StatusAccepted {
		t.Fatalf("second blocker = %d", code)
	}
	if code := submitMiss(3002); code != http.StatusTooManyRequests {
		t.Fatalf("a third miss = %d, want 429: the daemon is not saturated", code)
	}

	post := func(t *testing.T, path, accept string) (*http.Response, []byte, time.Duration) {
		t.Helper()
		raw, _ := json.Marshal(run)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
		req.Header.Set(TenantHeader, "key-gold")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body, time.Since(start)
	}
	for _, tc := range []struct {
		name, path, accept string
		check              func(*testing.T, *http.Response, []byte)
	}{
		{"binary", "/v1/run", wire.ContentType, func(t *testing.T, resp *http.Response, body []byte) {
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Hetwired-Cache") != "hit" {
				t.Fatalf("status %d, X-Hetwired-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Hetwired-Cache"), body)
			}
			if !bytes.Equal(body, frame) {
				t.Error("body is not the stored frame")
			}
		}},
		{"json", "/v1/run", "", func(t *testing.T, resp *http.Response, body []byte) {
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Hetwired-Cache") != "hit" {
				t.Fatalf("status %d, X-Hetwired-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Hetwired-Cache"), body)
			}
			if !bytes.Equal(body, view) {
				t.Errorf("body is not the JSON view of the stored frame:\n%s\n%s", body, view)
			}
		}},
		{"async", "/v1/jobs", "", func(t *testing.T, resp *http.Response, body []byte) {
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var st JobStatus
			mustDecode(t, body, &st)
			if st.State != StateDone || !st.CacheHit || !bytes.Equal(st.Result, view) {
				t.Errorf("submit answered state %s cache_hit %v result %s", st.State, st.CacheHit, st.Result)
			}
			for _, sp := range st.Spans {
				if sp.Name == spanQueueWait {
					t.Errorf("a hit recorded a queue_wait span: %+v", st.Spans)
				}
			}
			var polled JobStatus
			getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &polled)
			if polled.State != StateDone || !polled.CacheHit || !bytes.Equal(polled.Result, view) {
				t.Errorf("GET of the hit's record: state %s cache_hit %v", polled.State, polled.CacheHit)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := readHitCounters(t, ts.URL)
			resp, body, took := post(t, tc.path, tc.accept)
			tc.check(t, resp, body)
			if took > time.Second {
				t.Errorf("hit answered after %v behind a saturated queue", took)
			}
			after := readHitCounters(t, ts.URL)
			for _, d := range []struct {
				name string
				got  float64
			}{
				{"hetwired_jobs_submitted_total", after.submitted - before.submitted},
				{`hetwired_jobs_total{state="done"}`, after.done - before.done},
				{"hetwired_cache_hits_total", after.hits - before.hits},
				{"gold's good SLO verdicts", after.sloGood - before.sloGood},
				{"gold's Submitted", float64(after.tenantSubmitted - before.tenantSubmitted)},
				{"gold's Done", float64(after.tenantDone - before.tenantDone)},
			} {
				if d.got != 1 {
					t.Errorf("%s moved by %v, want 1", d.name, d.got)
				}
			}
		})
	}
}

// TestReplayOfDoneRunEmbedsResult: resubmitting a finished run under its
// Idempotency-Key answers the earlier record with its result attached, and
// counts nothing.
func TestReplayOfDoneRunEmbedsResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	run := map[string]any{"benchmark": "gzip", "n": 3000}
	_, raw := postAs(t, ts.URL+"/v1/jobs", "", "done-run", run)
	var first JobStatus
	mustDecode(t, raw, &first)
	want := waitTerminal(t, ts.URL, first.ID, 30*time.Second)
	if want.State != StateDone || len(want.Result) == 0 {
		t.Fatalf("first run ended %s with result %q", want.State, want.Result)
	}
	before := scrapeMetrics(t, ts.URL)

	resp, raw := postAs(t, ts.URL+"/v1/jobs", "", "done-run", run)
	var replay JobStatus
	mustDecode(t, raw, &replay)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Hetwired-Idempotent") != "replay" || replay.ID != first.ID {
		t.Fatalf("replay = %d %q job %s, want 200 replay of %s", resp.StatusCode,
			resp.Header.Get("X-Hetwired-Idempotent"), replay.ID, first.ID)
	}
	if replay.State != StateDone || !bytes.Equal(replay.Result, want.Result) {
		t.Errorf("replay answered state %s result %s, want done with %s", replay.State, replay.Result, want.Result)
	}
	after := scrapeMetrics(t, ts.URL)
	for _, name := range []string{"hetwired_jobs_submitted_total", `hetwired_jobs_total{state="done"}`, "hetwired_cache_hits_total"} {
		if d := metricValue(t, after, name) - metricValue(t, before, name); d != 0 {
			t.Errorf("the replay moved %s by %v", name, d)
		}
	}
}

// TestJSONViewRenderedOncePerEntry: JSON answers for one cached result —
// synchronous hits, the async hit's status, a poll of the miss that filled
// the entry — decode the stored frame once between them.
func TestJSONViewRenderedOncePerEntry(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	run := map[string]any{"benchmark": "mcf", "model": "V", "n": 3000}
	resp, first := postJSON(t, ts.URL+"/v1/run", run)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Hetwired-Cache") != "miss" {
		t.Fatalf("first run = %d %q", resp.StatusCode, resp.Header.Get("X-Hetwired-Cache"))
	}
	before := wire.ResultDecodes.Value()
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/run", run)
		if resp.Header.Get("X-Hetwired-Cache") != "hit" || !bytes.Equal(body, first) {
			t.Fatalf("hit %d: %q, body differs: %v", i, resp.Header.Get("X-Hetwired-Cache"), !bytes.Equal(body, first))
		}
		_, raw := postJSON(t, ts.URL+"/v1/jobs", run)
		var st JobStatus
		mustDecode(t, raw, &st)
		if st.State != StateDone || !bytes.Equal(st.Result, first) {
			t.Fatalf("async hit %d: state %s result differs: %v", i, st.State, !bytes.Equal(st.Result, first))
		}
	}
	if got := wire.ResultDecodes.Value() - before; got != 0 {
		t.Errorf("JSON hits decoded the stored frame %d times, want 0: the miss rendered the view", got)
	}
}

// TestCacheViewSharesTheBudget: an entry's JSON view is charged to the
// cache's byte budget, rendered once, and released with the entry.
func TestCacheViewSharesTheBudget(t *testing.T) {
	resp, err := (&hetwire.RunRequest{Benchmark: "gzip", N: 2000}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.EncodeRunResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(1 << 20)
	c.Put("a", frame)
	view, rendered, err := c.View("a", frame)
	if err != nil || !rendered {
		t.Fatalf("first View: rendered %v, err %v", rendered, err)
	}
	if got, want := c.Stats().Bytes, int64(len(frame)+len(view)); got != want {
		t.Errorf("bytes after the view = %d, want frame+view = %d", got, want)
	}
	again, rendered, err := c.View("a", frame)
	if err != nil || rendered || &again[0] != &view[0] {
		t.Errorf("second View rendered %v (err %v); want the kept view", rendered, err)
	}
	// An entry that is not stored renders without keeping anything.
	if _, rendered, _ := c.View("b", frame); !rendered || c.Stats().Entries != 1 {
		t.Errorf("View of an absent key: rendered %v, entries %d", rendered, c.Stats().Entries)
	}
	// Evicting the entry releases the view's bytes with it.
	small := NewCache(int64(len(frame) + len(view)))
	small.Put("a", frame)
	small.View("a", frame)
	small.Put("c", frame)
	if st := small.Stats(); st.Entries != 1 || st.Bytes != int64(len(frame)) {
		t.Errorf("after eviction: %d entries, %d bytes, want 1 entry of %d bytes", st.Entries, st.Bytes, len(frame))
	}
}

// TestCacheViewConcurrent: requests rendering one entry's view at once all
// get the same bytes, and the entry keeps and charges exactly one view.
func TestCacheViewConcurrent(t *testing.T) {
	resp, err := (&hetwire.RunRequest{Benchmark: "mcf", N: 2000}).Execute()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.EncodeRunResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(1 << 20)
	c.Put("k", frame)
	views := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.View("k", frame)
			if err != nil {
				t.Error(err)
			}
			views[i] = v
		}(i)
	}
	wg.Wait()
	for i, v := range views {
		if !bytes.Equal(v, views[0]) {
			t.Errorf("view %d differs from view 0", i)
		}
	}
	if got, want := c.Stats().Bytes, int64(len(frame)+len(views[0])); got != want {
		t.Errorf("bytes = %d, want frame+one view = %d", got, want)
	}
}

// TestJobContextReleasedAtEnd: a job's deadline context ends with the job,
// on every terminal path, so its timer does not outlive it.
func TestJobContextReleasedAtEnd(t *testing.T) {
	in := mustInjector(t, "seed=1,panic=1,panic.max=1")
	s, ts := newTestServer(t, Options{Workers: 1, Faults: in})
	submit := func(body any) string {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
		}
		var st JobStatus
		mustDecode(t, raw, &st)
		return st.ID
	}
	released := func(id string, want JobState) {
		t.Helper()
		if st := waitTerminal(t, ts.URL, id, 30*time.Second); st.State != want {
			t.Fatalf("job %s ended %s, want %s", id, st.State, want)
		}
		job := s.lookup(id)
		waitFor(t, 5*time.Second, func() bool { return job.ctx.Err() != nil },
			"the context of "+string(want)+" job "+id+" to end")
	}

	failed := submit(map[string]any{"benchmark": "gzip", "n": 2000}) // the injected panic
	released(failed, StateFailed)
	done := submit(map[string]any{"benchmark": "gcc", "n": 200_000})
	queued := submit(map[string]any{"benchmark": "mcf", "n": 2000})
	cancelJob(t, ts.URL, queued)
	released(queued, StateCancelled)
	released(done, StateDone)
	b := submit(batchBody([]string{"I"}, []string{"swim"}, 2000, 0))
	released(b, StateDone)
}

// batchModes runs test on a plain daemon and on a coordinator with no node
// attached: admission answers cached batch scenarios the same way on both.
func batchModes(t *testing.T, opts Options, test func(t *testing.T, s *Server, ts *httptest.Server)) {
	for _, mode := range []string{"plain", "coordinator"} {
		t.Run(mode, func(t *testing.T) {
			o := opts
			if mode == "coordinator" {
				o.Cluster = &ClusterOptions{Token: "hit-test"}
			}
			s, ts := newTestServer(t, o)
			test(t, s, ts)
		})
	}
}

// hitBatch is a three-scenario sweep, gzip on models I, V and VII, and
// hitSweep its submission body.
var (
	hitBatch = &hetwire.BatchRequest{Sweep: &hetwire.BatchSweep{Models: []string{"I", "V", "VII"},
		Benchmarks: []string{"gzip"}, Ns: []uint64{3000}}}
	hitSweep = map[string]any{"batch": hitBatch}
)

// hitSweepRequests is hitBatch's expansion.
func hitSweepRequests(t *testing.T) []hetwire.RunRequest {
	t.Helper()
	reqs, err := hitBatch.ValidExpansion()
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// leaseAndUpload plays one node on a coordinator: it takes the next lease,
// which must cover exactly want, simulates it in process and uploads it.
func leaseAndUpload(t *testing.T, s *Server, want []int) {
	t.Helper()
	reg, err := s.coord.Register(&cluster.RegisterRequest{
		Name: "hand", Protocol: cluster.ProtocolVersion, CompatHash: cluster.CompatHash()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := s.coord.Lease(ctx, &cluster.LeaseRequest{NodeID: reg.NodeID})
	if err != nil || resp.Lease == nil {
		t.Fatalf("lease: %+v err %v", resp, err)
	}
	l := resp.Lease
	if l.Start != want[0] || l.End != want[len(want)-1]+1 {
		t.Fatalf("lease covers [%d,%d), want the misses %v", l.Start, l.End, want)
	}
	scs := make([]wire.Scenario, len(l.Scenarios))
	for k, req := range l.Scenarios {
		res, err := req.Execute()
		if err != nil {
			t.Fatal(err)
		}
		scs[k] = wire.Scenario{Index: l.Start + k, Request: req}
		if scs[k].Result, err = wire.EncodeRunResult(res); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.coord.Upload(&wire.UploadHeader{NodeID: reg.NodeID, LeaseID: l.ID, JobID: l.JobID}, scs); err != nil {
		t.Fatal(err)
	}
}

// TestFullyCachedBatchBornDone: a batch whose every scenario is cached is
// answered at submission — 202, done, every scenario a cache hit, no
// queue_wait span — while a saturated queue refuses every miss with 429
// queue_full. It takes no worker and, on a coordinator, no lease. A replay
// under its Idempotency-Key returns the same record and counts no hit.
func TestFullyCachedBatchBornDone(t *testing.T) {
	in := mustInjector(t, "seed=3,slow=1,slowms=5000")
	batchModes(t, Options{Workers: 1, QueueDepth: 1, Faults: in}, func(t *testing.T, s *Server, ts *httptest.Server) {
		for _, req := range hitSweepRequests(t) {
			cachedRun(t, s, req)
		}
		var blockers []string
		t.Cleanup(func() {
			for _, id := range blockers {
				cancelJob(t, ts.URL, id)
			}
		})
		for n, want := range []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests} {
			resp, raw := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"benchmark": "mcf", "n": 3000 + n})
			if resp.StatusCode != want {
				t.Fatalf("blocker %d = %d, want %d: %s", n, resp.StatusCode, want, raw)
			}
			if want == http.StatusAccepted {
				var st JobStatus
				mustDecode(t, raw, &st)
				blockers = append(blockers, st.ID)
				if n == 0 {
					waitFor(t, 5*time.Second, func() bool { return s.queue.depthNow() == 0 }, "the first blocker to run")
				}
			}
		}

		before := s.Cache().Stats().Hits
		resp, raw := postAs(t, ts.URL+"/v1/jobs", "", "cached-sweep", hitSweep)
		var st JobStatus
		mustDecode(t, raw, &st)
		if resp.StatusCode != http.StatusAccepted || st.State != StateDone || !st.CacheHit ||
			st.Batch == nil || st.Batch.CacheHits != 3 || st.Batch.Completed != 3 {
			t.Fatalf("submit = %d: state %s cache_hit %v batch %+v", resp.StatusCode, st.State, st.CacheHit, st.Batch)
		}
		if len(st.Spans) != 1 || st.Spans[0].Name != spanCacheLookup {
			t.Errorf("spans %+v, want only the cache lookup", st.Spans)
		}
		if got := s.Cache().Stats().Hits - before; got != 3 {
			t.Errorf("cache hits moved by %d, want 3", got)
		}
		if s.coord != nil {
			if cs := s.coord.Stats(); cs.JobsSubmitted != 0 || cs.LeasesIssued != 0 {
				t.Errorf("coordinator stats %+v, want no job and no lease", cs)
			}
		}
		var polled JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &polled)
		var out hetwire.BatchResponse
		if err := json.Unmarshal(polled.Result, &out); err != nil || out.CacheHits != 3 || len(out.Scenarios) != 3 {
			t.Fatalf("result %s: %v", polled.Result, err)
		}

		resp, raw = postAs(t, ts.URL+"/v1/jobs", "", "cached-sweep", hitSweep)
		var replay JobStatus
		mustDecode(t, raw, &replay)
		if resp.StatusCode != http.StatusOK || replay.ID != st.ID {
			t.Errorf("replay = %d job %s, want 200 and %s", resp.StatusCode, replay.ID, st.ID)
		}
		if got := s.Cache().Stats().Hits - before; got != 3 {
			t.Errorf("the replay moved the cache hits to %d, want 3", got)
		}
	})
}

// TestPartlyCachedBatchRunsOnlyMisses: a batch publishes its cached
// scenarios (cached flag set) at admission, and only the miss is simulated
// on a plain daemon or leased on a coordinator. A coordinator stores the
// uploaded result in its cache.
func TestPartlyCachedBatchRunsOnlyMisses(t *testing.T) {
	batchModes(t, Options{Workers: 1}, func(t *testing.T, s *Server, ts *httptest.Server) {
		reqs := hitSweepRequests(t)
		cachedRun(t, s, reqs[0])
		cachedRun(t, s, reqs[2])
		misses := s.Cache().Stats().Misses
		instrs := s.metrics.instructions.Load()
		st := submitBatch(t, ts.URL, hitSweep)
		if st.Batch == nil || st.Batch.CacheHits != 2 {
			t.Fatalf("submit answered batch %+v, want the 2 hits published", st.Batch)
		}
		if s.coord != nil {
			leaseAndUpload(t, s, []int{1})
		}
		done := waitTerminal(t, ts.URL, st.ID, 30*time.Second)
		var out hetwire.BatchResponse
		if err := json.Unmarshal(done.Result, &out); err != nil || done.State != StateDone {
			t.Fatalf("job ended %s: %v", done.State, err)
		}
		for i, sc := range out.Scenarios {
			if sc.Cached != (i != 1) || sc.Response == nil {
				t.Errorf("scenario %d: cached %v response %v", i, sc.Cached, sc.Response != nil)
			}
		}
		if got := s.Cache().Stats().Misses - misses; got != 1 {
			t.Errorf("admission counted %d misses, want 1", got)
		}
		local := s.metrics.instructions.Load() - instrs
		key, _ := reqs[1].CacheKey()
		if _, stored := s.cache.lookup(key); !stored || (s.coord == nil && local != 3000) || (s.coord != nil && local != 0) {
			t.Errorf("the miss is stored %v, after %d locally simulated instructions", stored, local)
		}
	})
}

// TestHitRatioCountsEachScenarioOnce: admission counts every scenario once,
// as a hit or a miss, whether a worker or a cluster node resolves the miss.
// Two new scenarios and then the same sweep read hits 2, misses 2 and
// ratio 0.5.
func TestHitRatioCountsEachScenarioOnce(t *testing.T) {
	batchModes(t, Options{Workers: 1}, func(t *testing.T, s *Server, ts *httptest.Server) {
		sweep := map[string]any{"batch": &hetwire.BatchRequest{Sweep: &hetwire.BatchSweep{
			Models: []string{"I", "V"}, Benchmarks: []string{"mcf"}, Ns: []uint64{3000}}}}
		first := submitBatch(t, ts.URL, sweep)
		if s.coord != nil {
			leaseAndUpload(t, s, []int{0, 1})
		}
		if done := waitTerminal(t, ts.URL, first.ID, 30*time.Second); done.State != StateDone {
			t.Fatalf("first sweep ended %s: %s", done.State, done.Error)
		}
		if again := submitBatch(t, ts.URL, sweep); again.State != StateDone || !again.CacheHit {
			t.Fatalf("rerun answered %s, cache_hit %v", again.State, again.CacheHit)
		}
		text := scrapeMetrics(t, ts.URL)
		for _, m := range []struct {
			name string
			want float64
		}{{"hetwired_cache_hits_total", 2}, {"hetwired_cache_misses_total", 2}, {"hetwired_cache_hit_ratio", 0.5}} {
			if got := metricValue(t, text, m.name); got != m.want {
				t.Errorf("%s = %v, want %v", m.name, got, m.want)
			}
		}
	})
}

// TestCorruptEntryDroppedAtAdmission: admission verifies each entry's
// checksum, so a corrupted entry is dropped, counted in
// hetwired_cache_corrupt_dropped_total, and its scenario runs again.
func TestCorruptEntryDroppedAtAdmission(t *testing.T) {
	batchModes(t, Options{Workers: 1}, func(t *testing.T, s *Server, ts *httptest.Server) {
		reqs := hitSweepRequests(t)
		for _, req := range reqs {
			cachedRun(t, s, req)
		}
		key, _ := reqs[2].CacheKey()
		if !s.Cache().CorruptEntry(key) {
			t.Fatal("entry to corrupt is not resident")
		}
		st := submitBatch(t, ts.URL, hitSweep)
		if st.State == StateDone || st.Batch.CacheHits != 2 {
			t.Fatalf("submit answered state %s batch %+v, want 2 hits and the corrupt entry run", st.State, st.Batch)
		}
		if got := metricValue(t, scrapeMetrics(t, ts.URL), "hetwired_cache_corrupt_dropped_total"); got != 1 {
			t.Errorf("hetwired_cache_corrupt_dropped_total = %v, want 1", got)
		}
		if s.coord != nil {
			leaseAndUpload(t, s, []int{2})
		}
		if done := waitTerminal(t, ts.URL, st.ID, 30*time.Second); done.State != StateDone || done.Batch.CacheHits != 2 {
			t.Fatalf("job ended %s with batch %+v", done.State, done.Batch)
		}
	})
}

// TestStatusBodiesMatchMarshal: the submit answer and the poll of a done
// run job and of a done batch job are byte-identical to json.Marshal of
// the same status plus the newline json.Encoder writes, although the
// stored result view is appended without re-encoding.
func TestStatusBodiesMatchMarshal(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, req := range hitSweepRequests(t) {
		cachedRun(t, s, req)
	}
	for _, body := range []map[string]any{{"benchmark": "gzip", "model": "V", "n": 3000}, hitSweep} {
		resp, submitted := postJSON(t, ts.URL+"/v1/jobs", body)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("submit answered Content-Type %q", ct)
		}
		var st JobStatus
		mustDecode(t, submitted, &st)
		job := s.lookup(st.ID)
		if st.State != StateDone || job == nil {
			t.Fatalf("job %s answered %s, want born done", st.ID, st.State)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		polled, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name       string
			got        []byte
			withResult bool
		}{{"submit", submitted, job.Kind == "run"}, {"poll", polled, true}} {
			want, err := json.Marshal(job.Status(c.withResult))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.got, append(want, '\n')) {
				t.Errorf("%s %s body:\n%s\nwant:\n%s", job.Kind, c.name, c.got, want)
			}
		}
	}
}
