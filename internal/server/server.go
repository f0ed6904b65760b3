// Package server implements hetwired, the simulation-as-a-service daemon:
// an HTTP front end over the hetwire simulator with a bounded job queue
// drained by a weighted-fair scheduler (per-tenant queues, an interactive
// lane for single runs; see sched.go), a fixed worker pool, a
// content-addressed result cache, and Prometheus-format metrics.
// Simulations are deterministic, so identical requests are served from the
// cache (or coalesced onto an in-flight run) instead of re-simulating.
//
// Endpoints:
//
//	POST   /v1/run        synchronous run; X-Hetwired-Cache: hit|miss
//	POST   /v1/jobs       submit a run, sweep, or batch job; returns its id
//	GET    /v1/jobs       list job statuses (?state= filters)
//	GET    /v1/jobs/{id}  poll one job; result body included when done
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /v1/catalog    benchmarks, kernels, and interconnect models
//	GET    /healthz       liveness (503 while draining)
//	GET    /metrics       Prometheus text exposition
//
// Coordinator mode (Options.Cluster) adds the authenticated cluster
// protocol — POST /v1/cluster/{register,heartbeat,lease,cachecheck,upload}
// and GET /v1/cluster/nodes — and routes batch jobs to worker nodes; see
// internal/cluster.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
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
	// MaxJobs bounds the retained job records; the oldest terminal jobs
	// are pruned past it (default 1024).
	MaxJobs int
	// DefaultDeadline is the per-job wall-clock budget (queue wait included)
	// applied when a submission carries none (default 2m). Zero after
	// defaulting is impossible; a negative value disables deadlines.
	DefaultDeadline time.Duration
	// MaxDeadline caps per-request deadline overrides (default 10m).
	MaxDeadline time.Duration
	// MaxSweepPoints bounds how many points one sweep job may expand to
	// (default 1024); larger sweeps are rejected at submission.
	MaxSweepPoints int
	// DefaultRetryAfter is the Retry-After hint returned on queue-full
	// rejections before any job has completed, when no observed latency
	// exists to estimate drain time from (default 1s).
	DefaultRetryAfter time.Duration
	// Tenants, when set, enables keyed multi-tenancy: requests resolve to
	// configured tenants by API key and per-tenant limits apply. Nil is open
	// mode — everything runs as the unlimited anonymous tenant.
	Tenants *tenant.Config
	// FIFOScheduler disables the weighted-fair scheduler in favour of the
	// plain FIFO queue. A benchmarking knob (benchreport's qos_overhead row
	// measures the fair path against this baseline); production keeps it off.
	FIFOScheduler bool
	// ShedHighWater, ShedLowWater, ShedWindow, and ShedInterval tune the
	// overload watchdog: the queue staying at or above ShedHighWater x
	// QueueDepth for ShedWindow engages load-shed mode (bulk submissions get
	// 429 load_shed), cleared when depth falls to ShedLowWater x QueueDepth.
	// Defaults: 0.9, 0.25, 2s, 100ms.
	ShedHighWater float64
	ShedLowWater  float64
	ShedWindow    time.Duration
	ShedInterval  time.Duration
	// Faults optionally wires the deterministic fault-injection harness into
	// the worker path (chaos tests, HETWIRE_FAULTS). Nil injects nothing.
	Faults *faultinject.Injector
	// FlightEvents sizes the always-on flight recorder's event ring
	// (rounded up to a power of two). Zero selects flight.DefaultEvents;
	// a negative value disables the recorder entirely (nil-recorder fast
	// path: one pointer compare per would-be event).
	FlightEvents int
	// FlightDir, when set, is where the recorder auto-dumps on worker panic
	// or watchdog stall (flight-<reason>-<seq>.jsonl). Empty disables
	// auto-dumps; GET /v1/debug/flight still works.
	FlightDir string
	// Cluster, when set, runs the daemon as a cluster coordinator: the
	// /v1/cluster endpoints come up and batch jobs execute on registered
	// worker nodes instead of the local CPU pool. Nil keeps the daemon
	// single-box.
	Cluster *ClusterOptions
	// Logger receives structured request and job logs (default: discard).
	Logger *log.Logger
}

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
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
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
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = 1024
	}
	if o.DefaultRetryAfter <= 0 {
		o.DefaultRetryAfter = time.Second
	}
	if o.ShedHighWater <= 0 || o.ShedHighWater > 1 {
		o.ShedHighWater = 0.9
	}
	if o.ShedLowWater <= 0 || o.ShedLowWater >= o.ShedHighWater {
		o.ShedLowWater = 0.25
	}
	if o.ShedWindow <= 0 {
		o.ShedWindow = 2 * time.Second
	}
	if o.ShedInterval <= 0 {
		o.ShedInterval = 100 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = log.New(discard{}, "", 0)
	}
	return o
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

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
	// flight is the always-on flight recorder; nil when disabled
	// (Options.FlightEvents < 0), in which case every Record call is one
	// pointer compare.
	flight *flight.Recorder
	// coord is the cluster coordinator; nil unless Options.Cluster was set.
	coord        *cluster.Coordinator
	clusterToken string

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string          // submission order, for listing and pruning
	idem     map[string]string // Idempotency-Key -> job ID, pruned with jobs
	nextID   uint64
	draining bool
}

// New builds a server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	var fr *flight.Recorder
	if opts.FlightEvents >= 0 {
		fr = flight.New(opts.FlightEvents)
	}
	s := &Server{
		opts:    opts,
		queue:   newFairQueue(opts.QueueDepth, opts.Workers, opts.FIFOScheduler, fr),
		cache:   NewCache(opts.CacheBytes),
		metrics: NewMetrics(opts.Workers, time.Now()),
		tenants: tenant.NewRegistry(opts.Tenants),
		flight:  fr,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		idem:    make(map[string]string),
	}
	s.cache.setFlight(fr)
	if opts.Tenants != nil {
		s.metrics.SetTenantStats(s.tenants.Snapshots)
	}
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
		tid := ensureTraceID(w, r)
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown endpoint %s %s", r.Method, r.URL.Path))
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(NormalizeRoute(r.Method, r.URL.Path), http.StatusNotFound, elapsed)
		s.opts.Logger.Printf("http method=%s path=%s status=404 trace=%s dur=%s",
			r.Method, r.URL.Path, tid, elapsed.Round(time.Microsecond))
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

// Cache exposes the result cache (tests and the daemon's summary log).
func (s *Server) Cache() *Cache { return s.cache }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// route registers a handler with request logging and latency metrics keyed
// by the route pattern (not the raw URL, which would explode cardinality).
// Every request gets a trace ID here — taken from X-Hetwire-Trace when the
// client sent a valid one, minted otherwise — echoed on the response, stamped
// into the request log, and carried to the handler via the request context.
func (s *Server) route(method, pattern string, h http.HandlerFunc) {
	label := method + " " + pattern
	s.mux.HandleFunc(method+" "+pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tid := ensureTraceID(w, r)
		r = r.WithContext(hetwire.WithTraceID(r.Context(), tid))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(label, rec.status, elapsed)
		s.opts.Logger.Printf("http method=%s path=%s status=%d bytes=%d trace=%s dur=%s",
			r.Method, r.URL.Path, rec.status, rec.bytes, tid, elapsed.Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
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
// expires first, running jobs are cancelled (sweeps stop between points)
// and Shutdown returns the context error.
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
			now := time.Now()
			if current != nil {
				s.flight.Record(flight.Event{
					Kind:   flight.KindPanic,
					Trace:  current.TraceID,
					Tenant: current.tenant.Name(),
					Job:    current.ID,
					Detail: fmt.Sprint(r),
				})
				current.finishPanic(r, stack, now)
				s.queue.finished(current) // release the bulk-dispatch slot
				current.tenant.CountTerminal(string(StateFailed))
				s.metrics.jobsFailed.Add(1)
				s.metrics.ObserveJobWall(now.Sub(current.Status(false).Submitted))
				s.metrics.AddWorkerBusy(slot, now.Sub(busyStart))
				s.opts.Logger.Printf("job id=%s kind=%s tenant=%s state=failed trace=%s panic=%q (worker respawning)",
					current.ID, current.Kind, current.tenant.Name(), current.TraceID, fmt.Sprint(r))
			} else {
				s.flight.Record(flight.Event{Kind: flight.KindPanic, Detail: fmt.Sprint(r)})
				s.opts.Logger.Printf("worker panic outside a job: %v (respawning)", r)
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

// runJob executes one claimed job and records its outcome. The running/busy
// gauges are restored by defer so they stay correct even when a panic
// propagates to the worker's containment handler.
func (s *Server) runJob(job *Job) {
	if !job.claim(time.Now()) {
		return // cancelled while queued
	}
	s.metrics.jobsRunning.Add(1)
	s.metrics.workersBusy.Add(1)
	job.tenant.IncInFlight()
	defer func() {
		s.metrics.jobsRunning.Add(-1)
		s.metrics.workersBusy.Add(-1)
		job.tenant.DecInFlight()
	}()
	start := time.Now()

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
	switch job.Kind {
	case "sweep":
		body, hit, err = s.runSweep(job.ctx, job.Sweep, job.spans)
	case "batch":
		if s.coord != nil {
			body, hit, err = s.runClusterBatch(job)
		} else {
			body, hit, err = s.runBatch(job)
		}
	default:
		body, hit, err = s.runCached(job.ctx, &job.Req, job.spans)
	}
	now := time.Now()
	job.finish(body, hit, ipcOf(body), err, now)

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

	state := job.State()
	switch state {
	case StateDone:
		s.metrics.jobsDone.Add(1)
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
	case StateCancelled:
		s.metrics.jobsCancelled.Add(1)
	}
	for _, sp := range job.spans.snapshot() {
		s.metrics.ObservePhase(sp.Name, time.Duration(sp.DurMS*float64(time.Millisecond)))
	}
	// Bill the tenant for the job's measured simulation time — sim_run for
	// local execution, node_sim for scenarios that ran on cluster nodes — and
	// fold the same charge into the fair scheduler's virtual time.
	simCPU := job.spans.totalDur(spanSimRun, cluster.SpanSim)
	job.tenant.AddSimCPU(simCPU)
	job.tenant.CountTerminal(string(state))
	s.queue.charge(job, simCPU)
	st := job.Status(false)
	s.metrics.ObserveJobWall(now.Sub(st.Submitted))
	// SLO accounting: a job counts good when it finished Done within the
	// tenant's latency objective, measured end-to-end (queue wait included —
	// that is what the client experiences). Cancelled jobs are the client's
	// own doing and count neither way.
	if sloMS, sloTarget := job.tenant.SLO(); sloMS > 0 && state != StateCancelled {
		e2e := now.Sub(st.Submitted)
		good := state == StateDone && float64(e2e)/float64(time.Millisecond) <= sloMS
		s.metrics.ObserveSLO(job.tenant.Name(), sloTarget, good, e2e,
			time.Duration(st.QueueMS*float64(time.Millisecond)), now)
	}
	s.opts.Logger.Printf("job id=%s kind=%s tenant=%s lane=%s state=%s trace=%s cache_hit=%t wall_ms=%.1f sim_cpu_ms=%.1f ipc=%.3f err=%q",
		job.ID, job.Kind, job.tenant.Name(), job.lane, state, job.TraceID, st.CacheHit,
		float64(now.Sub(start))/float64(time.Millisecond), float64(simCPU)/float64(time.Millisecond), st.IPC, st.Error)
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
func (s *Server) runCached(ctx context.Context, req *hetwire.RunRequest, spans *spanRecorder) ([]byte, bool, error) {
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
	key, err := req.CacheKey()
	if err != nil {
		return nil, false, err
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

// runSweep executes a sweep point by point, consulting the cache for each
// and honouring cancellation between points.
func (s *Server) runSweep(ctx context.Context, sw *SweepRequest, spans *spanRecorder) ([]byte, bool, error) {
	reqs, err := sw.expand()
	if err != nil {
		return nil, false, err
	}
	out := SweepResponse{Points: make([]SweepPoint, 0, len(reqs))}
	for i := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		req := &reqs[i]
		body, hit, err := s.runCached(ctx, req, spans)
		if err != nil {
			return nil, false, fmt.Errorf("point %s/%s/n=%d: %w",
				req.Benchmark, req.Model, req.Instructions(), err)
		}
		if hit {
			out.CacheHits++
		}
		out.Points = append(out.Points, SweepPoint{
			Benchmark: req.Benchmark,
			Model:     req.Model,
			N:         req.Instructions(),
			IPC:       ipcOf(body),
			Cached:    hit,
		})
	}
	body, err := json.Marshal(out)
	return body, out.CacheHits == len(reqs), err
}

// runBatch executes a batch job on the shared engine: scenarios run in
// parallel under the process CPU-token budget, each going through the result
// cache individually, with per-scenario spans merged into the job's recorder
// and per-scenario progress published as each one finishes (a status poll
// mid-run sees the completed prefix, and the streaming endpoint relays each
// scenario frame as it lands). The job body is the binary batch stream —
// header, one TypeScenario frame per expansion index, trailer — assembled by
// concatenating the already-published frames; a cached scenario's stored
// result frame is embedded verbatim, so the batch path never decodes or
// re-encodes a result. Scenario failures are isolated into their slot rather
// than failing the job; only cancellation or a deadline ends the job early.
func (s *Server) runBatch(job *Job) ([]byte, bool, error) {
	ctx := job.ctx
	reqs, err := job.Batch.Expand()
	if err != nil {
		return nil, false, err
	}
	frames := make([][]byte, len(reqs))
	errs := batch.Run(ctx, len(reqs), job.Batch.Parallelism, func(ctx context.Context, i int) error {
		start := time.Now()
		body, hit, err := s.runCached(ctx, &reqs[i], job.spans)
		job.progress.finishPoint(i, ipcOf(body), hit, err, time.Since(start))
		fr, encErr := scenarioFrame(i, reqs[i], body, hit, err)
		if encErr != nil {
			return encErr
		}
		frames[i] = fr
		job.progress.publishFrame(i, fr)
		return err
	})
	// Scenarios the run never started (cancellation) or whose frame failed to
	// encode still occupy their index: synthesize an error frame so both the
	// stream and the merged body carry every expansion slot.
	for i := range frames {
		if frames[i] != nil {
			continue
		}
		cause := errs[i]
		if cause == nil {
			cause = errors.New("scenario did not run")
		}
		fr, encErr := scenarioFrame(i, reqs[i], nil, false, cause)
		if encErr != nil {
			return nil, false, encErr
		}
		frames[i] = fr
		job.progress.publishFrame(i, fr)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	encStart := time.Now()
	body, hit, err := assembleBatch(frames)
	job.spans.observe(spanResultEncode, encStart, time.Since(encStart))
	return body, hit, err
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

// scenarioReason maps a scenario error to its machine-readable reason code.
func scenarioReason(err error) string {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "cancelled"
	}
	return hetwire.ReasonCode(err)
}

// assembleBatch concatenates published scenario frames into the canonical
// batch stream, deriving the trailer counts from the frame headers alone.
// The bool result reports whether every scenario was a cache hit.
func assembleBatch(frames [][]byte) ([]byte, bool, error) {
	var completed, failed, hits int
	for i, fr := range frames {
		h, err := wire.PeekHeader(fr)
		if err != nil {
			return nil, false, fmt.Errorf("batch scenario %d: %w", i, err)
		}
		if h.Flags&wire.FlagError != 0 {
			failed++
			continue
		}
		completed++
		if h.Flags&wire.FlagCached != 0 {
			hits++
		}
	}
	out, err := wire.AppendBatchHeader(nil, len(frames))
	if err != nil {
		return nil, false, err
	}
	for _, fr := range frames {
		out = append(out, fr...)
	}
	out, err = wire.AppendBatchTrailer(out, wire.BatchTrailer{
		Total:     len(frames),
		Completed: completed,
		Failed:    failed,
		CacheHits: hits,
	})
	if err != nil {
		return nil, false, err
	}
	return out, hits == len(frames), nil
}

// ipcOf extracts the summary IPC from a result body. Wire frames carry the
// IPC in the frame header, so the common path reads 28 bytes and never
// decodes the payload; JSON bodies (sweep and batch summaries) fall back to
// unmarshalling.
func ipcOf(body []byte) float64 {
	if wire.IsWire(body) {
		h, err := wire.PeekHeader(body)
		if err != nil || h.Type != wire.TypeRunResult {
			return 0
		}
		return h.SummaryFloat()
	}
	var v struct {
		IPC float64 `json:"ipc"`
	}
	if body == nil || json.Unmarshal(body, &v) != nil {
		return 0
	}
	return v.IPC
}

// submitRequest is the POST /v1/jobs body: run-request fields inline, a
// "sweep" object, or a "batch" object, plus an optional per-job deadline
// override.
type submitRequest struct {
	hetwire.RunRequest
	Sweep *SweepRequest         `json:"sweep,omitempty"`
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

// submit validates, registers, and enqueues a job on behalf of tn (never
// nil; the anonymous tenant in open mode). A non-empty idemKey makes the
// submission idempotent within the tenant: a retry carrying the same key
// returns the job the first attempt created instead of enqueueing a
// duplicate — but the same key from a different tenant is a different
// submission. Every rejection is counted by machine-readable reason, on
// both the global and the tenant's counters, before it returns.
func (s *Server) submit(sub *submitRequest, tn *tenant.Tenant, idemKey, traceID string) (job *Job, replayed bool, err error) {
	kind := "run"
	var batchReqs []hetwire.RunRequest
	if sub.Batch != nil && sub.Sweep != nil {
		err := &hetwire.RequestError{Code: hetwire.ReasonBadRequest,
			Err: fmt.Errorf("server: a submission carries either batch or sweep, not both")}
		s.reject(tn, hetwire.ReasonCode(err))
		return nil, false, err
	}
	if sub.Batch != nil {
		kind = "batch"
		if err := sub.Batch.Validate(); err != nil {
			s.reject(tn, hetwire.ReasonCode(err))
			return nil, false, err
		}
		reqs, err := sub.Batch.Expand()
		if err != nil { // unreachable after Validate, but don't trust it
			s.reject(tn, hetwire.ReasonCode(err))
			return nil, false, err
		}
		// Validate enforced the library-wide MaxSweepPoints; the daemon's own
		// per-job limit may be tighter.
		if len(reqs) > s.opts.MaxSweepPoints {
			err := &hetwire.RequestError{Code: hetwire.ReasonBatchTooLarge,
				Err: fmt.Errorf("server: batch expands to %d scenarios, limit is %d", len(reqs), s.opts.MaxSweepPoints)}
			s.reject(tn, hetwire.ReasonCode(err))
			return nil, false, err
		}
		batchReqs = reqs
	} else if sub.Sweep != nil {
		kind = "sweep"
		reqs, err := sub.Sweep.expand()
		if err != nil {
			err = &hetwire.RequestError{Code: hetwire.ReasonBadRequest, Err: err}
			s.reject(tn, hetwire.ReasonCode(err))
			return nil, false, err
		}
		if len(reqs) > s.opts.MaxSweepPoints {
			err := &hetwire.RequestError{Code: hetwire.ReasonSweepTooLarge,
				Err: fmt.Errorf("server: sweep expands to %d points, limit is %d", len(reqs), s.opts.MaxSweepPoints)}
			s.reject(tn, hetwire.ReasonCode(err))
			return nil, false, err
		}
		for i := range reqs {
			if reqs[i].N > hetwire.MaxInstructions {
				err := &hetwire.RequestError{Code: hetwire.ReasonBudgetExceeded,
					Err: fmt.Errorf("server: sweep point n=%d exceeds the per-request limit of %d",
						reqs[i].N, uint64(hetwire.MaxInstructions))}
				s.reject(tn, hetwire.ReasonCode(err))
				return nil, false, err
			}
		}
	} else if err := sub.RunRequest.Validate(); err != nil {
		s.reject(tn, hetwire.ReasonCode(err))
		return nil, false, err
	}

	// Overload protection, after validation (malformed requests stay 400)
	// and before registration. Load-shed rejects only the bulk lane —
	// interactive runs stay admitted; the per-tenant token bucket covers
	// every lane. Both return 429 with a tenant-appropriate Retry-After.
	if laneOf(kind) == laneBulk && s.shed.Load() {
		err := &hetwire.RequestError{Code: hetwire.ReasonLoadShed,
			Err: fmt.Errorf("server: shedding load, bulk submissions are rejected until the queue drains")}
		s.reject(tn, hetwire.ReasonLoadShed)
		return nil, false, err
	}
	if !tn.Allow(time.Now()) {
		err := &hetwire.RequestError{Code: hetwire.ReasonTenantRateLimited,
			Err: fmt.Errorf("server: tenant %q submission rate limit exceeded", tn.Name())}
		s.reject(tn, hetwire.ReasonTenantRateLimited)
		return nil, false, err
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
		return nil, false, ErrDraining
	}
	if idemKey != "" {
		if id, ok := s.idem[idemKey]; ok {
			if j, ok := s.jobs[id]; ok {
				s.mu.Unlock()
				return j, true, nil
			}
		}
	}
	s.nextID++
	job = newJob(s.baseCtx, fmt.Sprintf("j-%06d", s.nextID), kind, traceID, tn, s.deadlineFor(sub), time.Now())
	job.Req = sub.RunRequest
	job.Sweep = sub.Sweep
	job.Batch = sub.Batch
	if batchReqs != nil {
		job.progress = newBatchProgress(batchReqs)
	}
	job.idemKey = idemKey
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if idemKey != "" {
		s.idem[idemKey] = job.ID
	}
	s.pruneLocked()
	s.mu.Unlock()

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
		return nil, false, err
	}
	s.metrics.jobsSubmitted.Add(1)
	tn.CountSubmitted()
	s.flight.Record(flight.Event{
		Kind:   flight.KindAdmit,
		Trace:  job.TraceID,
		Tenant: tn.Name(),
		Job:    job.ID,
		Lane:   job.lane.String(),
	})
	return job, false, nil
}

// dropLocked removes a job record that never made it into the queue.
// Called with s.mu held.
func (s *Server) dropLocked(job *Job) {
	delete(s.jobs, job.ID)
	for i := len(s.order) - 1; i >= 0; i-- { // it is almost always last
		if s.order[i] == job.ID {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if job.idemKey != "" && s.idem[job.idemKey] == job.ID {
		delete(s.idem, job.idemKey)
	}
	job.cancel() // release the deadline timer
}

// pruneLocked drops the oldest terminal job records past MaxJobs.
func (s *Server) pruneLocked() {
	for len(s.order) > s.opts.MaxJobs {
		pruned := false
		for i, id := range s.order {
			if j, ok := s.jobs[id]; ok && j.State().Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				if j.idemKey != "" && s.idem[j.idemKey] == id {
					delete(s.idem, j.idemKey)
				}
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything retained is still live
		}
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
	job, replayed, err := s.submit(&sub, tn, r.Header.Get("Idempotency-Key"), hetwire.TraceIDFrom(r.Context()))
	if err != nil {
		s.submitError(w, err, tn)
		return
	}
	if replayed {
		w.Header().Set("X-Hetwired-Idempotent", "replay")
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusAccepted)
	}
	writeJSON(w, job.Status(false))
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
// result body directly; the X-Hetwired-Cache header reports hit or miss.
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
	job, _, err := s.submit(&submitRequest{RunRequest: req}, tn, r.Header.Get("Idempotency-Key"), hetwire.TraceIDFrom(r.Context()))
	if err != nil {
		s.submitError(w, err, tn)
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
		// Content negotiation: a client accepting the binary wire format gets
		// the stored frame copied straight out of the cache — zero decode, zero
		// re-encode. Everyone else gets the JSON debug view, rendered lazily.
		if acceptsWire(r) {
			s.flight.Record(flight.Event{
				Kind: flight.KindZeroDecode, Trace: job.TraceID,
				Tenant: tn.Name(), Job: job.ID,
			})
			w.Header().Set("Content-Type", wire.ContentType)
			w.Write(job.RawResult())
			return
		}
		s.flight.Record(flight.Event{
			Kind: flight.KindWireDecode, Trace: job.TraceID,
			Tenant: tn.Name(), Job: job.ID,
		})
		w.Header().Set("Content-Type", "application/json")
		w.Write(job.Status(true).Result)
	case StateCancelled:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s cancelled", job.ID))
	default:
		httpError(w, http.StatusInternalServerError, errors.New(st.Error))
	}
}

// acceptsWire reports whether the request opted into the binary wire format.
func acceptsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	filter := JobState(r.URL.Query().Get("state"))
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
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
	writeJSON(w, job.Status(true))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if job.markCancelled(time.Now()) {
		s.queue.remove(job)
		s.metrics.jobsCancelled.Add(1)
		job.tenant.CountTerminal(string(StateCancelled))
	} else {
		job.cancel() // running: stops between sweep points; terminal: no-op
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
	if !s.flight.Enabled() {
		httpError(w, http.StatusNotFound, errors.New("flight recorder disabled (-flight-events < 0)"))
		return
	}
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
// (worker panic, watchdog stall). Best-effort: dump failures are logged,
// never propagated — the incident path must not gain new failure modes.
func (s *Server) autoDumpFlight(reason string) {
	if !s.flight.Enabled() || s.opts.FlightDir == "" {
		return
	}
	name := filepath.Join(s.opts.FlightDir, fmt.Sprintf("flight-%s-%d.jsonl", reason, s.flight.Seq()))
	f, err := os.Create(name)
	if err != nil {
		s.opts.Logger.Printf("flight: auto-dump %s: %v", name, err)
		return
	}
	defer f.Close()
	if err := flight.WriteDump(f, "hetwired", s.flight.Snapshot()); err != nil {
		s.opts.Logger.Printf("flight: auto-dump %s: %v", name, err)
		return
	}
	s.opts.Logger.Printf("flight: dumped recorder to %s (reason=%s)", name, reason)
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
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
