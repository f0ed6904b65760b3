// Package server implements hetwired, the simulation-as-a-service daemon:
// an HTTP front end over the hetwire simulator with a bounded job queue
// drained by a weighted-fair scheduler (per-tenant queues, an interactive
// lane for single runs; see sched.go), a fixed worker pool, a
// content-addressed result cache, and Prometheus-format metrics.
// Simulations are deterministic, so identical requests are served from the
// cache (or coalesced onto an in-flight run) instead of re-simulating; every
// cache hit is answered at submission, and only misses become queued work.
//
// Endpoints:
//
//	POST   /v1/run        synchronous run; X-Hetwired-Cache: hit|miss
//	POST   /v1/jobs       submit a run or batch job; returns its status
//	                      (done at once when the cache answers it whole)
//	GET    /v1/jobs       list job statuses (?state= filters)
//	GET    /v1/jobs/{id}  poll one job; result body included when done
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /v1/catalog    benchmarks, kernels, and interconnect models
//	GET    /healthz       liveness (503 while draining)
//	GET    /metrics       Prometheus text exposition
//
// Coordinator mode (Options.Cluster) adds the authenticated cluster
// protocol — POST /v1/cluster/{register,heartbeat,lease,upload} and GET
// /v1/cluster/nodes — and routes batch jobs to worker nodes; see
// internal/cluster.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetwire"
	"hetwire/internal/batch"
	"hetwire/internal/cluster"
	"hetwire/internal/config"
	"hetwire/internal/core"
	"hetwire/internal/faultinject"
	"hetwire/internal/obs/flight"
	"hetwire/internal/tenant"
	"hetwire/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the job queue (default 64); submissions beyond it
	// are rejected with 429 + Retry-After.
	QueueDepth int
	// CacheBytes is the result-cache byte budget (default 64 MiB).
	CacheBytes int64
	// DefaultDeadline is the per-job wall-clock budget (queue wait included)
	// applied when a submission carries none (default 2m). Zero after
	// defaulting is impossible; a negative value disables deadlines.
	DefaultDeadline time.Duration
	// MaxDeadline caps per-request deadline overrides (default 10m).
	MaxDeadline time.Duration
	// DefaultRetryAfter is the Retry-After hint returned on queue-full
	// rejections before any job has completed, when no observed latency
	// exists to estimate drain time from (default 1s).
	DefaultRetryAfter time.Duration
	// Tenants, when set, enables keyed multi-tenancy: requests resolve to
	// configured tenants by API key and per-tenant limits apply. Nil is open
	// mode — everything runs as the unlimited anonymous tenant.
	Tenants *tenant.Config
	// Faults optionally wires the deterministic fault-injection harness into
	// the worker path (chaos tests, HETWIRE_FAULTS). Nil injects nothing.
	Faults *faultinject.Injector
	// Flight is the daemon's flight recorder, its one event stream: every
	// component (scheduler, cache, coordinator, worker pool) records into
	// it. Nil selects a flight.DefaultEvents ring.
	Flight *flight.Recorder
	// FlightDir, when set, is where the recorder auto-dumps on worker panic
	// or watchdog stall (flight-<reason>-<seq>.jsonl). Empty disables
	// auto-dumps; GET /v1/debug/flight still works.
	FlightDir string
	// Cluster, when set, runs the daemon as a cluster coordinator: the
	// /v1/cluster endpoints come up and batch jobs execute on registered
	// worker nodes instead of the local CPU pool. Nil keeps the daemon
	// single-box.
	Cluster *ClusterOptions

	// shedInterval is the overload watchdog's sampling period (default
	// 100ms). Tests set it far out to hold a forced load-shed latch.
	shedInterval time.Duration
}

// maxJobs bounds the retained job records; the oldest terminal jobs are
// pruned past it.
const maxJobs = 1024

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.DefaultDeadline == 0 {
		o.DefaultDeadline = 2 * time.Minute
	}
	if o.DefaultDeadline < 0 {
		o.DefaultDeadline = 0
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 10 * time.Minute
	}
	if o.DefaultRetryAfter <= 0 {
		o.DefaultRetryAfter = time.Second
	}
	if o.shedInterval <= 0 {
		o.shedInterval = 100 * time.Millisecond
	}
	if o.Flight == nil {
		o.Flight = flight.New(flight.DefaultEvents)
	}
	return o
}

// Server is the hetwired daemon core. Create with New, serve its Handler,
// and stop with Shutdown.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	queue   *fairQueue
	cache   *Cache
	metrics *Metrics
	tenants *tenant.Registry
	// shed is the overload watchdog's latch: while set, bulk-lane
	// submissions are rejected with reason load_shed.
	shed atomic.Bool
	// flight is the always-on flight recorder; never nil.
	flight *flight.Recorder
	// coord is the cluster coordinator; nil unless Options.Cluster was set.
	coord        *cluster.Coordinator
	clusterToken string

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job
	// order holds the job records oldest first, for listing and pruning; an
	// idempotent replay moves its record to the back. Each record keeps its
	// element (Job.elem).
	order    *list.List
	idem     map[string]string // Idempotency-Key -> job ID, pruned with jobs
	nextID   uint64
	draining bool
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	fr := opts.Flight
	s := &Server{
		opts:    opts,
		queue:   newFairQueue(opts.QueueDepth, opts.Workers, fr),
		cache:   NewCache(opts.CacheBytes),
		metrics: NewMetrics(opts.Workers, time.Now()),
		tenants: tenant.NewRegistry(opts.Tenants),
		flight:  fr,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		order:   list.New(),
		idem:    make(map[string]string),
	}
	s.cache.setFlight(fr)
	s.metrics.SetTenantStats(s.tenants.Snapshots, opts.Tenants != nil)
	s.metrics.SetSchedStats(s.queue.snapshot)
	publishSchedExpvar(s.queue)
	s.mux = http.NewServeMux()
	s.route("POST", "/v1/run", s.handleRunSync)
	s.route("POST", "/v1/jobs", s.handleSubmit)
	s.route("GET", "/v1/jobs", s.handleListJobs)
	s.route("GET", "/v1/jobs/{id}", s.handleGetJob)
	s.route("GET", "/v1/jobs/{id}/stream", s.handleStreamJob)
	s.route("DELETE", "/v1/jobs/{id}", s.handleCancelJob)
	s.route("GET", "/v1/catalog", s.handleCatalog)
	s.route("GET", "/v1/debug/flight", s.handleDebugFlight)
	s.route("GET", "/v1/tenants/usage", s.handleTenantsUsage)
	s.route("GET", "/healthz", s.handleHealthz)
	s.route("GET", "/metrics", s.handleMetrics)
	if opts.Cluster != nil {
		s.initCluster(opts.Cluster)
	}
	// Catch-all for paths outside the served API: the request is still
	// counted (under the bounded NormalizeRoute label) and traced, so probes
	// for wrong URLs show up in /metrics instead of vanishing.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ensureTraceID(w, r)
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown endpoint %s %s", r.Method, r.URL.Path))
		s.metrics.ObserveRequest(NormalizeRoute(r.Method, r.URL.Path), http.StatusNotFound, time.Since(start))
	})
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	// The overload watchdog runs outside the worker WaitGroup: it exits on
	// the base context, which Shutdown cancels after the workers drain.
	go s.shedMonitor()
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (tests and the daemon's drain summary).
func (s *Server) Cache() *Cache { return s.cache }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// route registers a handler with request metrics keyed by the route pattern
// (not the raw URL, which would explode cardinality). Every request gets a
// trace ID here — taken from X-Hetwire-Trace when the client sent a valid
// one, minted otherwise — echoed on the response and carried to the handler
// via the request context, which stamps it on the flight events the request
// causes.
func (s *Server) route(method, pattern string, h http.HandlerFunc) {
	label := method + " " + pattern
	s.mux.HandleFunc(method+" "+pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r = r.WithContext(hetwire.WithTraceID(r.Context(), ensureTraceID(w, r)))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.metrics.ObserveRequest(label, rec.status, time.Since(start))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers can push
// frames through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Shutdown drains the daemon: intake closes immediately (submissions get
// 503), queued and running jobs finish, and the worker pool exits. If ctx
// expires first, running jobs are cancelled and Shutdown returns the
// context error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.queue.close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop() // cancel running jobs, then wait for workers to notice
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until it is closed and empty. A panic that escapes
// a job is contained here: the job it was executing finishes as failed with
// the stack trace in failure_log, and a replacement worker is spawned so the
// pool never shrinks — the daemon keeps serving. The slot index labels the
// per-worker busy-time counter; a respawned worker inherits its
// predecessor's slot so the label set stays fixed at pool size.
func (s *Server) worker(slot int) {
	var current *Job
	var busyStart time.Time
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if current != nil {
				s.flight.Record(flight.Event{
					Kind:   flight.KindPanic,
					Trace:  current.TraceID,
					Tenant: current.tenant.Name(),
					Job:    current.ID,
					Detail: fmt.Sprint(r),
				})
				ended := current.finishPanic(r, stack, time.Now())
				s.queue.finished(current) // release the bulk-dispatch slot
				if ended {
					s.settle(current.release())
				}
				s.metrics.AddWorkerBusy(slot, time.Since(busyStart))
			} else {
				s.flight.Record(flight.Event{Kind: flight.KindPanic, Detail: fmt.Sprint(r)})
			}
			s.autoDumpFlight("panic")
			s.metrics.jobsPanicked.Add(1)
			s.metrics.workersRespawned.Add(1)
			s.wg.Add(1)
			go s.worker(slot)
		}
		s.wg.Done()
	}()
	for {
		job, ok := s.queue.pop()
		if !ok {
			return
		}
		current = job
		busyStart = time.Now()
		s.runJob(job)
		s.queue.finished(job)
		s.metrics.AddWorkerBusy(slot, time.Since(busyStart))
		current = nil
	}
}

// runJob executes one claimed job and records its outcome. The tenant's
// in-flight gauge, which the running and busy-worker gauges sum, is
// restored by defer so it stays correct even when a panic propagates to the
// worker's containment handler.
func (s *Server) runJob(job *Job) {
	if !job.claim(time.Now()) {
		return // cancelled while queued
	}
	job.tenant.IncInFlight()
	defer job.tenant.DecInFlight()

	// Fault-injection points (no-ops without an injector): spurious
	// cancellation, artificial slowness, and a worker panic.
	if s.opts.Faults.Should(faultinject.CtxCancel) {
		job.cancel()
	}
	if s.opts.Faults.Should(faultinject.JobSlow) {
		sleepCtx(job.ctx, s.opts.Faults.SlowDuration())
	}
	if s.opts.Faults.Should(faultinject.WorkerPanic) {
		panic("faultinject: worker panic")
	}

	var body []byte
	var hit bool
	var err error
	switch {
	case job.progress == nil:
		body, hit, err = s.runCached(job.ctx, &job.Req, job.key, job.spans)
	case s.coord != nil:
		err = s.runClusterBatch(job)
	default:
		err = s.runBatch(job)
	}
	job.finish(body, hit, ipcOf(body), err, time.Now())

	// A forward-progress watchdog abort is the "stall" incident class: record
	// it and preserve the ring on disk, exactly like a panic.
	var np *core.NoProgressError
	if errors.As(err, &np) {
		s.flight.Record(flight.Event{
			Kind:   flight.KindStall,
			Trace:  job.TraceID,
			Tenant: job.tenant.Name(),
			Job:    job.ID,
			Detail: np.Error(),
		})
		s.autoDumpFlight("stall")
	}
	s.settle(job.release())
}

// outcome is what settle accounts for one answered request: a job's
// terminal record (Job.release), or a synchronous run answered from the
// cache at submission, which has no record.
type outcome struct {
	tenant                       *tenant.Tenant
	state                        JobState
	submitted, started, finished time.Time
	spans                        []Span
}

// settle does an answered request's terminal accounting, once, on whichever
// path ended it: the end of runJob, a contained worker panic, a cancel while
// queued, or a cache hit answered at submission. Every request counts its
// terminal state. One that ran or hit also feeds the phase histograms, bills
// its tenant's sim CPU and the fair queue's virtual time, adds its wall time
// to the Retry-After estimate, and gets its SLO verdict; a job cancelled
// while queued does none of these.
func (s *Server) settle(o outcome) {
	o.tenant.CountTerminal(string(o.state))
	if o.started.IsZero() {
		return
	}
	// Bill the tenant for the measured simulation time — sim_run for local
	// execution, node_sim for scenarios that ran on cluster nodes — and fold
	// the same charge into the fair scheduler's virtual time.
	var simCPU time.Duration
	for _, sp := range o.spans {
		d := time.Duration(sp.DurMS * float64(time.Millisecond))
		s.metrics.ObservePhase(sp.Name, d)
		if sp.Name == spanSimRun || sp.Name == cluster.SpanSim {
			simCPU += d
		}
	}
	o.tenant.AddSimCPU(simCPU)
	s.queue.charge(o.tenant, simCPU)
	e2e := o.finished.Sub(o.submitted)
	s.metrics.ObserveJobWall(e2e)
	// SLO accounting: a request counts good when it finished Done within the
	// tenant's latency objective, measured end-to-end (queue wait included —
	// that is what the client experiences). Cancelled jobs are the client's
	// own doing and count neither way.
	if sloMS, sloTarget := o.tenant.SLO(); sloMS > 0 && o.state != StateCancelled {
		good := o.state == StateDone && float64(e2e)/float64(time.Millisecond) <= sloMS
		s.metrics.ObserveSLO(o.tenant.Name(), sloTarget, good, e2e, o.started.Sub(o.submitted), o.finished)
	}
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first —
// injected slowness must not outlive a cancellation or deadline.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// runCached serves one run request through the result cache. The simulation
// itself runs under ctx: cancelling the job stops the simulator within one
// ctx-check interval (hetwire.CtxCheckInterval committed instructions).
// Phase spans land on the recorder: sim_run and result_encode inside the
// fill (only when this call actually simulates), cache_lookup as the Do time
// net of the fill — for hits and coalesced waits that is the whole wait.
func (s *Server) runCached(ctx context.Context, req *hetwire.RunRequest, key string, spans *spanRecorder) ([]byte, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	// Hold a process CPU token across the lookup-or-fill, unless this frame
	// already runs under one (a batch scenario). Acquiring before cache.Do is
	// what keeps the pool deadlock-free: a coalescing flight leader always
	// already holds its token, so waiters holding tokens never starve it.
	if !batch.HasToken(ctx) {
		waitStart := time.Now()
		if err := batch.CPU.Acquire(ctx); err != nil {
			return nil, false, err
		}
		defer batch.CPU.Release()
		spans.observe(spanCPUWait, waitStart, time.Since(waitStart))
		ctx = batch.WithToken(ctx)
	}
	lookupStart := time.Now()
	var fillDur time.Duration
	body, hit, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		fillStart := time.Now()
		defer func() { fillDur = time.Since(fillStart) }()
		resp, err := req.ExecuteContext(ctx)
		if err != nil {
			return nil, err
		}
		simDur := time.Since(fillStart)
		s.metrics.simBusy.Add(int64(simDur))
		s.metrics.instructions.Add(resp.Instructions)
		spans.observe(spanSimRun, fillStart, simDur)
		// The cache stores the binary wire frame, not JSON: hits and
		// coalesced waiters then serve results by copying stored bytes, and
		// binary consumers (batch streams, cluster uploads) embed the frame
		// without ever re-encoding. JSON views are rendered lazily at the
		// HTTP edge only when a client asks for them.
		encStart := time.Now()
		b, err := wire.EncodeRunResult(resp)
		spans.observe(spanResultEncode, encStart, time.Since(encStart))
		// Attribute the inserted bytes to the tenant whose job filled this
		// entry (cumulative insert attribution; later hits by any tenant read
		// it for free — the filler paid the simulation too).
		if err == nil {
			if tn := tenant.FromContext(ctx); tn != nil {
				tn.AddCacheBytes(int64(len(b)))
			}
		}
		return b, err
	})
	if d := time.Since(lookupStart) - fillDur; d > 0 {
		spans.observe(spanCacheLookup, lookupStart, d)
	} else {
		spans.observe(spanCacheLookup, lookupStart, 0)
	}
	if err == nil {
		kind := flight.KindCacheMiss
		if hit {
			kind = flight.KindCacheHit
		}
		ev := flight.Event{Kind: kind, Trace: hetwire.TraceIDFrom(ctx)}
		if tn := tenant.FromContext(ctx); tn != nil {
			ev.Tenant = tn.Name()
		}
		s.flight.Record(ev)
	}
	if err == nil && !hit && s.opts.Faults.Should(faultinject.CacheCorrupt) {
		s.cache.CorruptEntry(key)
	}
	return body, hit, err
}

// runBatch executes a batch job's uncached scenarios on the shared engine:
// they run in parallel under the process CPU-token budget, each through the
// result cache under the key admission computed (so a twin that filled or
// is filling the entry meanwhile is not simulated again), with per-scenario
// spans merged into the job's recorder and each frame published as it
// finishes. A cached scenario's stored result frame is embedded verbatim, so
// the batch path never decodes or re-encodes a result. Scenario failures are
// isolated into their frame; only cancellation or a deadline ends the job
// early, and the job's terminal transition resolves the scenarios that never
// started.
func (s *Server) runBatch(job *Job) error {
	p := job.progress
	errs := batch.Run(job.ctx, len(p.pending), job.Batch.Parallelism, func(ctx context.Context, k int) error {
		i := p.pending[k]
		body, hit, err := s.runCached(ctx, &p.reqs[i], p.keys[i], job.spans)
		p.publish(i, body, hit, err)
		return err
	})
	// A scenario that panicked never reached its publish: its frame carries
	// the contained panic. A context error here belongs to a scenario that
	// never started.
	for k, err := range errs {
		if err != nil && !isContextError(err) {
			p.publish(p.pending[k], nil, false, err)
		}
	}
	return job.ctx.Err()
}

// scenarioFrame encodes one resolved batch scenario into its wire frame. A
// successful scenario embeds the cached result frame verbatim; a failed one
// carries the error and reason strings instead.
func scenarioFrame(i int, req hetwire.RunRequest, body []byte, hit bool, err error) ([]byte, error) {
	sc := &wire.Scenario{Index: i, Request: req}
	if err != nil {
		sc.Error = err.Error()
		sc.Reason = scenarioReason(err)
	} else {
		sc.Result = body
		sc.Cached = hit
	}
	return wire.AppendScenario(nil, sc)
}

// errorFrame encodes a failed scenario's frame. With no result to embed and
// indices bounded by hetwire.MaxSweepPoints, encoding cannot fail.
func errorFrame(i int, req hetwire.RunRequest, err error) []byte {
	fr, encErr := scenarioFrame(i, req, nil, false, err)
	if encErr != nil {
		panic(fmt.Sprintf("server: encoding scenario %d: %v", i, encErr))
	}
	return fr
}

// scenarioReason maps a scenario error to its machine-readable reason code.
func scenarioReason(err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "cancelled"
	}
	return hetwire.ReasonCode(err)
}

// ipcOf extracts the summary IPC from a run-result frame's header, so the
// path reads 28 bytes and never decodes the payload. No frame (a batch job,
// or a failed run) yields 0.
func ipcOf(body []byte) float64 {
	h, _ := wire.PeekHeader(body)
	return h.SummaryFloat()
}

// submitRequest is the POST /v1/jobs body: run-request fields inline or a
// "batch" object, plus an optional per-job deadline override.
type submitRequest struct {
	hetwire.RunRequest
	Batch *hetwire.BatchRequest `json:"batch,omitempty"`
	// DeadlineMS overrides the server's default per-job wall-clock budget,
	// capped at Options.MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// deadlineFor resolves a submission's wall-clock budget: the request
// override clamped to MaxDeadline, or the server default.
func (s *Server) deadlineFor(sub *submitRequest) time.Duration {
	d := s.opts.DefaultDeadline
	if sub.DeadlineMS > 0 {
		d = time.Duration(sub.DeadlineMS) * time.Millisecond
		if d > s.opts.MaxDeadline {
			d = s.opts.MaxDeadline
		}
	}
	return d
}

// admission is what submit decided for an accepted request.
type admission struct {
	// job is the request's record: a new one (queued, or born done on a
	// cache hit) or, when replayed is set, the one an earlier submission
	// under the same Idempotency-Key created. Nil for a synchronous hit.
	job      *Job
	replayed bool
	// key and frame are a synchronous hit's cache key and stored result
	// frame.
	key   string
	frame []byte
}

// submit validates a request on behalf of tn (never nil; the anonymous
// tenant in open mode) and answers it from the result cache or registers
// and enqueues a job. Every cache hit is decided here, once per scenario.
// A request the cache answers whole never becomes work: a synchronous run
// (sync set) is answered with the stored frame and leaves no record, and a
// run or batch submitted as a job gets a record born done. That takes no
// queue slot, so queue_full and tenant_queue_share never refuse it. A batch
// with misses publishes its hits at once and enqueues the rest. A non-empty
// idemKey makes the submission idempotent within the tenant: a retry with
// the same key returns the job the first attempt created and counts no hit,
// but the same key from a different tenant is a different submission. Every
// rejection is counted by machine-readable reason, on both the global and
// the tenant's counters, before it returns.
func (s *Server) submit(sub *submitRequest, tn *tenant.Tenant, idemKey, traceID string, sync bool) (admission, error) {
	kind := "run"
	reqs := []hetwire.RunRequest{sub.RunRequest}
	if sub.Batch != nil {
		kind = "batch"
		var err error
		if reqs, err = sub.Batch.ValidExpansion(); err != nil {
			s.reject(tn, hetwire.ReasonCode(err))
			return admission{}, err
		}
	} else if err := sub.RunRequest.Validate(); err != nil {
		s.reject(tn, hetwire.ReasonCode(err))
		return admission{}, err
	}

	// Overload protection, after validation (malformed requests stay 400)
	// and before registration. Load-shed rejects only the bulk lane —
	// interactive runs stay admitted; the per-tenant token bucket covers
	// every lane. Both return 429 with a tenant-appropriate Retry-After.
	if laneOf(kind) == laneBulk && s.shed.Load() {
		err := &hetwire.RequestError{Code: hetwire.ReasonLoadShed,
			Err: fmt.Errorf("server: shedding load, bulk submissions are rejected until the queue drains")}
		s.reject(tn, hetwire.ReasonLoadShed)
		return admission{}, err
	}
	if !tn.Allow(time.Now()) {
		err := &hetwire.RequestError{Code: hetwire.ReasonTenantRateLimited,
			Err: fmt.Errorf("server: tenant %q submission rate limit exceeded", tn.Name())}
		s.reject(tn, hetwire.ReasonTenantRateLimited)
		return admission{}, err
	}

	// Each scenario's cache key is computed once, here: admission looks the
	// keys up, and the worker or the coordinator reuses them for the misses.
	keys := make([]string, len(reqs))
	for i := range reqs {
		var err error
		if keys[i], err = reqs[i].CacheKey(); err != nil { // unreachable after Validate
			s.reject(tn, hetwire.ReasonCode(err))
			return admission{}, err
		}
	}

	// Idempotency keys are scoped per tenant: tenant A replaying key K must
	// never observe (or collide with) tenant B's job under the same K. The
	// separator cannot appear in a tenant name, so scoped keys cannot alias.
	if idemKey != "" {
		idemKey = tn.Name() + "\x00" + idemKey
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(tn, "draining")
		return admission{}, ErrDraining
	}
	if idemKey != "" {
		if id, ok := s.idem[idemKey]; ok {
			if j, ok := s.jobs[id]; ok {
				// The replayer is about to poll this record: retain it as the
				// newest, so the next submission cannot prune it.
				s.order.MoveToBack(j.elem)
				s.mu.Unlock()
				return admission{job: j, replayed: true}, nil
			}
		}
	}
	// The lookups verify each entry's checksum, so a corrupt entry is
	// dropped and its scenario becomes a miss.
	now := time.Now()
	frames := make([][]byte, len(keys))
	hit := true
	for i, k := range keys {
		var ok bool
		frames[i], ok = s.cache.lookup(k)
		hit = hit && ok
	}
	if hit && sync {
		s.mu.Unlock()
		end := time.Now()
		s.recordHit(traceID, tn, "")
		tn.CountSubmitted()
		s.settle(outcome{tenant: tn, state: StateDone, submitted: now, started: now, finished: end,
			spans: []Span{{Name: spanCacheLookup, DurMS: float64(end.Sub(now)) / float64(time.Millisecond)}}})
		return admission{key: keys[0], frame: frames[0]}, nil
	}
	s.nextID++
	job := newJob(fmt.Sprintf("j-%06d", s.nextID), kind, traceID, tn, now)
	job.Req = sub.RunRequest
	job.Batch = sub.Batch
	job.flight = s.flight
	job.cache = s.cache
	if sub.Batch == nil {
		job.key = keys[0]
	} else {
		job.progress = newBatchProgress(reqs, keys, frames)
	}
	for _, fr := range frames {
		if fr != nil {
			s.recordHit(traceID, tn, job.ID)
		}
	}
	if hit {
		job.hit(frames[0], now, time.Now())
	} else {
		job.arm(s.baseCtx, s.deadlineFor(sub))
	}
	job.idemKey = idemKey
	s.jobs[job.ID] = job
	job.elem = s.order.PushBack(job)
	if idemKey != "" {
		s.idem[idemKey] = job.ID
	}
	s.pruneLocked()
	s.mu.Unlock()

	if !hit {
		if err := s.queue.push(job); err != nil {
			s.mu.Lock()
			s.dropLocked(job)
			s.mu.Unlock()
			// Reason order matters: errTenantQueueShare wraps ErrQueueFull, so
			// the typed code is consulted before the errors.Is fallbacks.
			var re *hetwire.RequestError
			switch {
			case errors.As(err, &re):
				s.reject(tn, re.Code)
			case errors.Is(err, ErrQueueFull):
				s.reject(tn, "queue_full")
			default:
				s.reject(tn, "draining")
			}
			return admission{}, err
		}
	}
	tn.CountSubmitted()
	if hit {
		s.settle(job.release())
		return admission{job: job}, nil
	}
	s.flight.Record(flight.Event{
		Kind:   flight.KindAdmit,
		Trace:  job.TraceID,
		Tenant: tn.Name(),
		Job:    job.ID,
		Lane:   job.lane.String(),
	})
	return admission{job: job}, nil
}

// recordHit records the cache_hit event of a run or batch scenario answered
// at submission; job is empty for a synchronous hit, which has no record.
func (s *Server) recordHit(traceID string, tn *tenant.Tenant, job string) {
	s.flight.Record(flight.Event{Kind: flight.KindCacheHit, Trace: traceID, Tenant: tn.Name(), Job: job})
}

// dropLocked removes a job record — one that never made it into the queue,
// or a pruned terminal one — with its idempotency key, and releases its
// deadline timer. Called with s.mu held.
func (s *Server) dropLocked(job *Job) {
	delete(s.jobs, job.ID)
	s.order.Remove(job.elem)
	if job.idemKey != "" && s.idem[job.idemKey] == job.ID {
		delete(s.idem, job.idemKey)
	}
	job.cancel()
}

// pruneLocked drops the oldest terminal job records past maxJobs, walking
// from the oldest record past the live ones.
func (s *Server) pruneLocked() {
	for e := s.order.Front(); e != nil && s.order.Len() > maxJobs; {
		j, next := e.Value.(*Job), e.Next()
		if j.State().Terminal() {
			s.dropLocked(j)
		}
		e = next
	}
}

// retryAfter estimates how long a rejected submitter should back off: the
// queue's expected drain time, i.e. depth x observed mean job latency spread
// over the worker pool, clamped to [1s, 5m] and rounded up to whole seconds
// (the Retry-After header's unit). Before any job has completed there is no
// observed latency to scale by queue depth, so the configured default is
// returned as-is rather than multiplying a guess by the depth.
func (s *Server) retryAfter() time.Duration {
	if s.metrics.ObservedJobs() == 0 {
		return s.opts.DefaultRetryAfter.Round(time.Second)
	}
	mean := s.metrics.MeanJobLatency(time.Second)
	depth := s.queue.depthNow() + 1 // the job that would have queued
	est := time.Duration(depth) * mean / time.Duration(s.opts.Workers)
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est.Round(time.Second)
}

// --- HTTP handlers ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, err := s.resolveTenant(r)
	if err != nil {
		s.reject(nil, hetwire.ReasonUnknownTenant)
		s.submitError(w, err, nil)
		return
	}
	var sub submitRequest
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		s.reject(tn, "bad_json")
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	adm, err := s.submit(&sub, tn, r.Header.Get("Idempotency-Key"), hetwire.TraceIDFrom(r.Context()), false)
	if err != nil {
		s.submitError(w, err, tn)
		return
	}
	code := http.StatusAccepted
	if adm.replayed {
		w.Header().Set("X-Hetwired-Idempotent", "replay")
		code = http.StatusOK
	}
	// A run job's result rides along once it is done: a cache hit is born
	// done, and a replay may find its job finished. The client then has
	// nothing to poll.
	writeStatus(w, code, adm.job.Status(adm.job.Kind == "run"))
}

// submitError maps a submission failure to its HTTP response. Overload
// rejections (queue_full, tenant_queue_share, tenant_rate_limited,
// load_shed) become 429 with a Retry-After hint — the tenant's own bucket
// refill time for a rate limit, the queue-drain estimate otherwise — and
// unknown_tenant becomes 401. The body carries the machine-readable reason
// code alongside the human-readable message so clients can branch without
// string matching. The typed code is consulted before the errors.Is
// fallbacks because tenant rejections wrap the generic sentinels.
func (s *Server) submitError(w http.ResponseWriter, err error, tn *tenant.Tenant) {
	var re *hetwire.RequestError
	if errors.As(err, &re) {
		switch re.Code {
		case hetwire.ReasonTenantRateLimited, hetwire.ReasonTenantQueueShare, hetwire.ReasonLoadShed:
			w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfterFor(tn, re.Code)/time.Second)))
			httpErrorReason(w, http.StatusTooManyRequests, re.Code, err)
			return
		case hetwire.ReasonUnknownTenant:
			httpErrorReason(w, http.StatusUnauthorized, re.Code, err)
			return
		}
	}
	if errors.Is(err, ErrQueueFull) {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.retryAfter()/time.Second)))
		httpErrorReason(w, http.StatusTooManyRequests, "queue_full", err)
		return
	}
	if errors.Is(err, ErrDraining) {
		httpErrorReason(w, http.StatusServiceUnavailable, "draining", err)
		return
	}
	httpErrorReason(w, submitStatus(err), hetwire.ReasonCode(err), err)
}

// handleRunSync submits a run and blocks until it completes, returning the
// result body directly; the X-Hetwired-Cache header reports hit or miss. A
// cache hit is answered here, at submission, without a job.
func (s *Server) handleRunSync(w http.ResponseWriter, r *http.Request) {
	tn, err := s.resolveTenant(r)
	if err != nil {
		s.reject(nil, hetwire.ReasonUnknownTenant)
		s.submitError(w, err, nil)
		return
	}
	var req hetwire.RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.reject(tn, "bad_json")
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	traceID := hetwire.TraceIDFrom(r.Context())
	adm, err := s.submit(&submitRequest{RunRequest: req}, tn, r.Header.Get("Idempotency-Key"), traceID, true)
	if err != nil {
		s.submitError(w, err, tn)
		return
	}
	job := adm.job
	if job == nil {
		w.Header().Set("X-Hetwired-Cache", "hit")
		s.writeResult(w, r, flight.Event{Trace: traceID, Tenant: tn.Name()}, adm.key, adm.frame)
		return
	}
	select {
	case <-job.done:
	case <-r.Context().Done():
		// The client went away; the job keeps running and fills the cache.
		httpError(w, 499, fmt.Errorf("client closed request; job %s continues", job.ID))
		return
	}
	st := job.Status(false)
	switch st.State {
	case StateDone:
		if st.CacheHit {
			w.Header().Set("X-Hetwired-Cache", "hit")
		} else {
			w.Header().Set("X-Hetwired-Cache", "miss")
		}
		s.writeResult(w, r, flight.Event{Trace: job.TraceID, Tenant: tn.Name(), Job: job.ID}, job.key, job.RawResult())
	case StateCancelled:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s cancelled", job.ID))
	default:
		httpError(w, http.StatusInternalServerError, errors.New(st.Error))
	}
}

// writeResult answers a synchronous run with its result frame. Content
// negotiation: a client accepting the binary wire format gets the stored
// frame as it is — zero decode, zero re-encode; everyone else gets the JSON
// view kept with the frame's cache entry, rendered the first time any
// request asks for it. ev labels the flight event that records whether this
// answer decoded the frame.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, ev flight.Event, key string, frame []byte) {
	ev.Kind = flight.KindZeroDecode
	if acceptsWire(r) {
		s.flight.Record(ev)
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(frame)
		return
	}
	view, rendered, err := s.cache.View(key, frame)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if rendered {
		ev.Kind = flight.KindWireDecode
	}
	s.flight.Record(ev)
	w.Header().Set("Content-Type", "application/json")
	w.Write(view)
}

// acceptsWire reports whether the request opted into the binary wire format.
func acceptsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	filter := JobState(r.URL.Query().Get("state"))
	s.mu.Lock()
	jobs := make([]*Job, 0, s.order.Len())
	for e := s.order.Front(); e != nil; e = e.Next() {
		jobs = append(jobs, e.Value.(*Job))
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status(false)
		if filter != "" && st.State != filter {
			continue
		}
		out = append(out, st)
	}
	writeJSON(w, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeStatus(w, http.StatusOK, job.Status(true))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if job.markCancelled(time.Now()) {
		s.queue.remove(job)
		s.settle(job.release())
	} else {
		job.cancel() // running: the simulation sees its context end; terminal: no-op
	}
	writeJSON(w, job.Status(false))
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	models := make([]string, 0, 10)
	for _, m := range config.Models() {
		models = append(models, m.ID.String())
	}
	writeJSON(w, map[string]any{
		"benchmarks": hetwire.Benchmarks(),
		"kernels":    hetwire.Kernels(),
		"models":     models,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSON(w, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, map[string]any{"status": "ok"})
}

// handleDebugFlight dumps the flight recorder's surviving event window as
// JSONL, whatever the Accept header says. ?canon=1 clears the measured
// fields (VTime, DurMS) so two identical runs dump byte-identical files —
// the determinism contract CI pins with cmp.
func (s *Server) handleDebugFlight(w http.ResponseWriter, r *http.Request) {
	events := s.flight.Snapshot()
	if r.URL.Query().Get("canon") == "1" {
		events = flight.Canonical(events)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flight.WriteDump(w, "hetwired", events)
}

// handleTenantsUsage surfaces the per-tenant accounting ledgers (submission,
// terminal-state, sim-CPU, and cache-byte counters plus the live queue/
// in-flight gauges) as JSON — the ops-plane view of who is spending what.
func (s *Server) handleTenantsUsage(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"tenants": s.tenants.Snapshots()})
}

// autoDumpFlight preserves the recorder ring on disk after an incident
// (worker panic, watchdog stall) as flight-<reason>-<seq>.jsonl. The dump is
// written under a dot-prefixed temporary name and renamed into place, so a
// reader never sees a partial file under the final name. Best-effort: a
// failure is recorded as an error event, never propagated — the incident
// path must not gain new failure modes.
func (s *Server) autoDumpFlight(reason string) {
	if s.opts.FlightDir == "" {
		return
	}
	name := filepath.Join(s.opts.FlightDir, fmt.Sprintf("flight-%s-%d.jsonl", reason, s.flight.Seq()))
	tmp := filepath.Join(s.opts.FlightDir, "."+filepath.Base(name)+".tmp")
	err := writeDumpFile(tmp, s.flight.Snapshot())
	if err == nil {
		err = os.Rename(tmp, name)
	}
	if err != nil {
		os.Remove(tmp)
		s.flight.Record(flight.Event{Kind: flight.KindError, Reason: "dump", Detail: err.Error()})
	}
}

// writeDumpFile writes events as a complete JSONL flight dump at path.
func writeDumpFile(path string, events []flight.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := flight.WriteDump(f, "hetwired", events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w, s.queue.depthNow(), draining, s.cache.Stats(), time.Now())
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// submitStatus maps submission errors to HTTP statuses: draining is 503
// (retry against another instance), bad requests 400. Queue-full is handled
// earlier by submitError (429 + Retry-After).
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	json.NewEncoder(w).Encode(v)
}

// writeStatus answers a job status with the bytes writeJSON would write,
// without re-scanning the result: the stored view is already compact, so it
// is appended as the last field as it is.
func writeStatus(w http.ResponseWriter, code int, st JobStatus) {
	result := st.Result
	st.Result = nil
	b, err := json.Marshal(st)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if len(result) > 0 {
		b = append(append(append(b[:len(b)-1], `,"result":`...), result...), '}')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// httpErrorReason is httpError plus a machine-readable reason field.
func httpErrorReason(w http.ResponseWriter, status int, reason string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "reason": reason})
}
