package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"hetwire"
	"hetwire/internal/client"
	"hetwire/internal/server"
)

// hitsWL is the read path: a closed loop of nproc clients re-requesting a
// seeded Zipf draw from a result set the daemon cached during set-up.
type hitsWL struct {
	seed  uint64
	nproc int
	set   []hetwire.RunRequest
	d     *daemon
	cl    *client.Client
	tr    *http.Transport
	cnt   transportCounts
	// kept holds the first response seen per (set index, path); every later
	// response for the same pair must agree with it, and check compares the
	// kept ones with in-process execution.
	kept map[hitKey]*hetwire.RunResponse
	// bad collects what the window itself found wrong, reported by check.
	bad []string
}

// hitSlice is the slice length the closed-loop window is summarised by.
const hitSlice = time.Second

type hitKey struct {
	index int
	path  string
}

func (h *hitsWL) setup(ctx context.Context) error {
	h.set = genHitSet(h.seed)
	var err error
	if h.d, err = startDaemon(server.Options{}); err != nil {
		return err
	}
	h.cl, h.tr = newClient(h.d.base, "", h.nproc, &h.cnt)
	// Fill the result cache through the daemon: batch jobs put every
	// scenario through the result cache individually.
	for lo := 0; lo < len(h.set); lo += hetwire.MaxSweepPoints {
		hi := min(lo+hetwire.MaxSweepPoints, len(h.set))
		st, err := h.cl.SubmitBatch(ctx, &hetwire.BatchRequest{Scenarios: h.set[lo:hi], Parallelism: h.nproc}, 0)
		if err != nil {
			return fmt.Errorf("filling the result cache: %w", err)
		}
		if st, err = h.cl.Await(ctx, st.ID, 5*time.Millisecond); err != nil {
			return fmt.Errorf("filling the result cache: %w", err)
		}
		if st.State != server.StateDone || st.Batch == nil || st.Batch.Failed > 0 {
			return fmt.Errorf("filling the result cache: batch job %s ended %s", st.ID, st.State)
		}
	}
	m, err := promSample(ctx, h.d.base)
	if err != nil {
		return err
	}
	if got := m["hetwired_cache_entries"]; got < float64(len(h.set)) {
		return fmt.Errorf("result cache holds %v entries after the fill, want %d", got, len(h.set))
	}
	return nil
}

// hitResult is one client's tally for the window.
type hitResult struct {
	done              []completion
	asyncLat          []float64
	calls             map[string]int
	failed, resubmits int
	bad               []string
	kept              map[hitKey]*hetwire.RunResponse
}

func (h *hitsWL) run(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	before, err := h.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	w := newWindow()
	deadline := w.t0.Add(d)
	results := make([]*hitResult, h.nproc)
	var wg sync.WaitGroup
	for c := 0; c < h.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = h.client(ctx, c, w.t0, deadline, tr)
		}(c)
	}
	wg.Wait()
	w.close()
	after, err := h.readCounters(ctx)
	if err != nil {
		return nil, err
	}

	h.kept = map[hitKey]*hetwire.RunResponse{}
	h.bad = nil
	calls := map[string]int{}
	var asyncLat []float64
	var resubmits int
	var done []completion
	for _, r := range results {
		resubmits += r.resubmits
		done = append(done, r.done...)
		asyncLat = append(asyncLat, r.asyncLat...)
		w.failed += r.failed
		h.bad = append(h.bad, r.bad...)
		for k, v := range r.calls {
			calls[k] += v
		}
		for k, v := range r.kept {
			if prev, ok := h.kept[k]; !ok {
				h.kept[k] = v
			} else if !sameResponse(prev, v) {
				h.bad = append(h.bad, fmt.Sprintf("set entry %d via %s: clients saw different responses", k.index, k.path))
			}
		}
	}
	w.attempted = len(done) + w.failed
	w.units = float64(len(done))
	w.samples = len(done)
	sl := sliceSummary(done, w.wall, hitSlice, 0.99)
	w.e2e["throughput"] = median(sl.rate)
	w.e2e["cpu_ns_per_unit"] = ratio(float64(w.cpu), w.units)
	w.e2e["latency_p50_ms"] = median(sl.p50)
	w.vals["latency_tail_ms"] = median(sl.tail)
	w.info("hit_rps", median(sl.rate), "req/s")
	w.info("hit_p50_us", 1e3*median(sl.p50), "us")
	w.info("hit_p99_us", 1e3*median(sl.tail), "us")
	w.info("slices", float64(len(sl.rate)), "count")
	w.vals["async_p50_ms"] = median(asyncLat)
	w.vals["async_p95_ms"] = quantile(asyncLat, 0.95)
	w.info("async_p50_ms", median(asyncLat), "ms")
	w.info("async_p95_ms", w.vals["async_p95_ms"], "ms")
	if n := after.cacheMisses - before.cacheMisses; n > 0 {
		h.bad = append(h.bad, fmt.Sprintf("%v requests missed the result cache; every serve_hits request must hit", n))
	}
	w.vals["client.resubmits"] = float64(resubmits)
	w.info("client.resubmits", float64(resubmits), "count")
	calls[pathAsync] += resubmits
	h.layerValues(ctx, w, before, after, calls, tr)
	return w, nil
}

// client is one closed-loop client: request, wait, repeat until deadline.
func (h *hitsWL) client(ctx context.Context, c int, t0, deadline time.Time, tr *tracer) *hitResult {
	res := &hitResult{calls: map[string]int{}, kept: map[hitKey]*hetwire.RunResponse{}}
	stream := newHitStream(h.seed, c)
	for req := int64(c+1) << 32; time.Now().Before(deadline) && ctx.Err() == nil; req++ {
		dr := stream.next()
		rr := h.set[dr.Index]
		t := time.Now()
		var resp *hetwire.RunResponse
		var hit bool
		var err error
		switch dr.Path {
		case pathWire:
			_, end := tr.begin("client.RunWire", req, 0)
			resp, hit, err = h.cl.RunWire(ctx, &rr)
			end(nil)
		case pathJSON:
			_, end := tr.begin("client.DoJSON POST /v1/run", req, 0)
			var out hetwire.RunResponse
			err = h.cl.DoJSON(ctx, http.MethodPost, "/v1/run", &rr, "", &out)
			end(nil)
			resp, hit = &out, true // the JSON body carries no cache flag; /metrics counts misses
		case pathAsync:
			_, end := tr.begin("client.Run", req, 0)
			var st server.JobStatus
			resp, st, err = h.cl.Run(ctx, &rr, 0)
			end(jobSpans(st))
			for try := 0; try < 3 && isUnknownJob(err); try++ {
				// The replayed job record was pruned between submit and the
				// first poll; a caller runs the request again (README,
				// findings). The latency keeps counting from the first try.
				res.resubmits++
				_, end := tr.begin("client.Run", req, 0)
				resp, st, err = h.cl.Run(ctx, &rr, 0)
				end(jobSpans(st))
			}
			hit = st.CacheHit
		}
		now := time.Now()
		res.calls[dr.Path]++
		if err != nil {
			// A failed request is not a completion; any failure makes the
			// run exit non-zero.
			if res.failed == 0 {
				fmt.Fprintf(os.Stderr, "serve_hits client %d: %s request for set entry %d failed: %v\n", c, dr.Path, dr.Index, err)
			}
			res.failed++
			continue
		}
		lat := ms(now.Sub(t))
		res.done = append(res.done, completion{at: now.Sub(t0), lat: lat})
		if !hit {
			res.bad = append(res.bad, fmt.Sprintf("set entry %d via %s was not served from the cache", dr.Index, dr.Path))
		}
		if dr.Path == pathAsync {
			res.asyncLat = append(res.asyncLat, lat)
		}
		k := hitKey{dr.Index, dr.Path}
		if prev, ok := res.kept[k]; !ok {
			res.kept[k] = resp
		} else if !sameResponse(prev, resp) {
			res.bad = append(res.bad, fmt.Sprintf("set entry %d via %s changed between requests", dr.Index, dr.Path))
		}
	}
	return res
}

// isUnknownJob reports a 404 for a job ID the daemon itself handed out.
func isUnknownJob(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// sameResponse is the cheap in-window comparison of two responses for one
// request; check does the full ResultHash comparison afterwards.
func sameResponse(a, b *hetwire.RunResponse) bool {
	return a.Cycles == b.Cycles && a.Instructions == b.Instructions && a.IPC == b.IPC &&
		a.Benchmark == b.Benchmark && a.Model == b.Model && a.Clusters == b.Clusters
}

func jobSpans(st server.JobStatus) []jobSpan {
	out := make([]jobSpan, 0, len(st.Spans))
	for _, sp := range st.Spans {
		out = append(out, jobSpan{sp.Name, sp.StartMS, sp.DurMS})
	}
	return out
}

// check re-executes every requested set entry in-process and compares each
// served response's ResultHash with it.
func (h *hitsWL) check(ctx context.Context) []string {
	byIndex := map[int][]hitKey{}
	for k := range h.kept {
		byIndex[k.index] = append(byIndex[k.index], k)
	}
	indices := make([]int, 0, len(byIndex))
	for i := range byIndex {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	want, errs := executeAll(ctx, h.nproc, len(indices), func(i int) hetwire.RunRequest { return h.set[indices[i]] })
	bad := h.bad
	for i, idx := range indices {
		if errs[i] != nil {
			bad = append(bad, fmt.Sprintf("in-process run of set entry %d: %v", idx, errs[i]))
			continue
		}
		for _, k := range byIndex[idx] {
			if got := responseHash(h.kept[k]); got != want[i] {
				bad = append(bad, fmt.Sprintf("set entry %d via %s: served hash %s, in-process %s", idx, k.path, got, want[i]))
			}
		}
	}
	return bad
}

func (h *hitsWL) close() error {
	if h.d == nil {
		return nil
	}
	err := h.d.stop()
	h.tr.CloseIdleConnections()
	h.d = nil
	return err
}

// executeAll runs n in-process requests on nproc goroutines and returns
// their ResultHashes.
func executeAll(ctx context.Context, nproc, n int, req func(i int) hetwire.RunRequest) ([]string, []error) {
	hashes := make([]string, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := req(i)
				resp, err := r.ExecuteContext(ctx)
				if err != nil {
					errs[i] = err
					continue
				}
				hashes[i] = responseHash(resp)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return hashes, errs
}

// serverCounters is the daemon readout taken around a window.
type serverCounters struct {
	prom        map[string]float64
	cacheHits   float64
	cacheMisses float64
	submitted   float64
	rejected    float64
	busySec     float64
	decodes     float64
	flightSeq   float64
	attempts    float64
	polls       float64
	binResps    float64
	binBytes    float64
	jsonResps   float64
	jsonBytes   float64
}

func (h *hitsWL) readCounters(ctx context.Context) (serverCounters, error) {
	return readServerCounters(ctx, h.d, &h.cnt)
}

func readServerCounters(ctx context.Context, d *daemon, cnt *transportCounts) (serverCounters, error) {
	m, err := promSample(ctx, d.base)
	if err != nil {
		return serverCounters{}, err
	}
	seq, err := flightSeq(ctx, d.base)
	if err != nil {
		return serverCounters{}, err
	}
	return serverCounters{
		prom:        m,
		cacheHits:   m["hetwired_cache_hits_total"] + m["hetwired_cache_coalesced_total"],
		cacheMisses: m["hetwired_cache_misses_total"],
		submitted:   m["hetwired_jobs_submitted_total"],
		rejected:    promSum(m, "hetwired_jobs_rejected_total"),
		busySec:     promSum(m, "hetwired_worker_busy_seconds_total"),
		decodes:     expvarInt("hetwire_wire_result_decodes", ""),
		flightSeq:   float64(seq),
		attempts:    float64(cnt.attempts.Load()),
		polls:       float64(cnt.polls.Load()),
		binResps:    float64(cnt.binResps.Load()),
		binBytes:    float64(cnt.binBytes.Load()),
		jsonResps:   float64(cnt.jsonResps.Load()),
		jsonBytes:   float64(cnt.jsonBytes.Load()),
	}, nil
}

// serverLayerValues fills the server, wire, obs and client readouts shared
// by both serving workloads. requests is what the harness sent through
// cnt's transport during the window (polls excluded).
func serverLayerValues(w *window, before, after serverCounters, requests, workers float64) {
	d := func(f func(serverCounters) float64) float64 { return f(after) - f(before) }
	hits, misses := d(func(c serverCounters) float64 { return c.cacheHits }), d(func(c serverCounters) float64 { return c.cacheMisses })
	w.vals["server.cache_hits"] = hits
	w.vals["server.cache_misses"] = misses
	w.vals["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	w.vals["server.rejected"] = d(func(c serverCounters) float64 { return c.rejected })
	w.vals["server.worker_util"] = ratio(d(func(c serverCounters) float64 { return c.busySec }), w.wall.Seconds()*workers)
	w.vals["server.handler_p50_us"] = 1e6 * promHistDeltaQuantile(before.prom, after.prom, "hetwired_http_request_duration_seconds", 0.5)
	binResps := d(func(c serverCounters) float64 { return c.binResps })
	jsonResps := d(func(c serverCounters) float64 { return c.jsonResps })
	// Binary responses are decoded once more by the in-process client;
	// what remains is the daemon's own decoding.
	w.vals["wire.result_decodes"] = d(func(c serverCounters) float64 { return c.decodes }) - binResps
	w.vals["wire.resp_bytes_bin"] = ratio(d(func(c serverCounters) float64 { return c.binBytes }), binResps)
	w.vals["wire.resp_bytes_json"] = ratio(d(func(c serverCounters) float64 { return c.jsonBytes }), jsonResps)
	polls := d(func(c serverCounters) float64 { return c.polls })
	w.vals["client.retries"] = d(func(c serverCounters) float64 { return c.attempts }) - polls - requests
	w.vals["obs.flight_events_per_req"] = ratio(d(func(c serverCounters) float64 { return c.flightSeq }), requests)
}

// jobListing reads the statuses (spans included) of the retained jobs
// submitted since the given time.
func jobListing(ctx context.Context, cl *client.Client, since time.Time) ([]server.JobStatus, error) {
	var body struct {
		Jobs []server.JobStatus `json:"jobs"`
	}
	if err := cl.DoJSON(ctx, http.MethodGet, "/v1/jobs", nil, "", &body); err != nil {
		return nil, fmt.Errorf("listing jobs: %w", err)
	}
	jobs := body.Jobs[:0]
	for _, j := range body.Jobs {
		if !j.Submitted.Before(since) {
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// spanMeans fills the server.* phase readouts: the mean duration per job of
// each daemon phase span, over the jobs that recorded it.
func spanMeans(w *window, jobs []server.JobStatus) {
	sums := map[string]float64{}
	counts := map[string]float64{}
	for _, j := range jobs {
		for _, sp := range j.Spans {
			sums[sp.Name] += sp.DurMS
			counts[sp.Name]++
		}
	}
	m := func(n string) float64 { return ratio(sums[n], counts[n]) }
	w.vals["server.queue_wait_ms"] = m("queue_wait")
	w.vals["server.cpu_wait_ms"] = m("cpu_wait")
	w.vals["server.cache_lookup_us"] = 1e3 * m("cache_lookup")
	w.vals["server.sim_run_ms"] = m("sim_run")
	w.vals["server.result_encode_us"] = 1e3 * m("result_encode")
	w.vals["server.span_jobs"] = float64(len(jobs))
}

func (h *hitsWL) layerValues(ctx context.Context, w *window, before, after serverCounters, calls map[string]int, tr *tracer) {
	requests := float64(calls[pathWire] + calls[pathJSON] + calls[pathAsync])
	serverLayerValues(w, before, after, requests, daemonWorkers)
	idem := float64(calls[pathWire] + calls[pathAsync])
	newJobs := (after.submitted - before.submitted) - float64(calls[pathJSON])
	w.vals["server.idem_requests"] = idem
	w.vals["server.idem_replays"] = idem - newJobs
	w.vals["server.idem_replay_ratio"] = ratio(idem-newJobs, idem)
	w.vals["client.await_polls_per_job"] = ratio(after.polls-before.polls, float64(calls[pathAsync]))
	if tr != nil {
		w.vals["client.runwire_us"] = 1e3 * mean(tr.durations("client.RunWire"))
		w.vals["client.run_json_us"] = 1e3 * mean(tr.durations("client.DoJSON POST /v1/run"))
		if jobs, err := jobListing(ctx, h.cl, w.t0); err == nil {
			spanMeans(w, jobs)
		}
	}
}
