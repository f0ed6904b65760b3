package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"hetwire"
	"hetwire/internal/batch"
	"hetwire/internal/obs/flight"
	"hetwire/internal/tenant"
	"hetwire/internal/wire"
)

// JobState is the lifecycle of a submitted job.
type JobState string

// Job lifecycle: Queued -> Running -> one of Done/Failed/Cancelled. Queued
// jobs cancel immediately; a running job's simulations stop within one
// ctx-check interval (hetwire.CtxCheckInterval committed instructions).
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one queued unit of work: a single/multiprogrammed run or a batch.
type Job struct {
	ID    string
	Kind  string // "run" or "batch"
	Req   hetwire.RunRequest
	Batch *hetwire.BatchRequest
	// TraceID is the request-trace identifier the job was submitted under
	// (client-minted or daemon-minted); immutable after submission.
	TraceID string

	// tenant is the resolved submitting tenant (never nil) and lane its
	// scheduler class; both are immutable after submission.
	tenant *tenant.Tenant
	lane   jobLane
	// dispatchedBulk marks a job occupying one of the scheduler's bounded
	// bulk-dispatch slots; owned by the fairQueue (mutated under its lock).
	dispatchedBulk bool
	// flight receives the job's job_done event (see endLocked).
	flight *flight.Recorder

	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}  // closed on reaching a terminal state
	elem     *list.Element  // the record's place in Server.order, under Server.mu
	idemKey  string         // tenant-scoped idempotency key, if any
	deadline time.Duration  // wall-clock budget from submission
	spans    *spanRecorder  // per-phase timings, base = submission time
	progress *batchProgress // the scenario frames, batch jobs only
	// key is a run job's result-cache key, computed once at submission, and
	// cache the result cache whose entry holds the JSON view of the result.
	key   string
	cache *Cache

	mu         sync.Mutex
	state      JobState
	body       []byte // a run job's result frame, valid when state == StateDone
	jsonBody   []byte // memoized JSON view of body, built on first demand
	jsonErr    error
	errMsg     string
	failureLog string // stack trace when the job died to a worker panic
	cacheHit   bool
	ipc        float64
	submitted  time.Time
	started    time.Time
	finished   time.Time
}

// newJob builds a queued job record. It has no context until arm gives it
// one; a job that never runs (a cache hit, born done) keeps a no-op cancel.
func newJob(id, kind, traceID string, tn *tenant.Tenant, now time.Time) *Job {
	return &Job{
		ID:        id,
		Kind:      kind,
		TraceID:   traceID,
		tenant:    tn,
		lane:      laneOf(kind),
		cancel:    func() {},
		done:      make(chan struct{}),
		spans:     newSpanRecorder(now),
		state:     StateQueued,
		submitted: now,
	}
}

// arm gives a job that will run its context, descending from parent; a
// non-zero deadline bounds the job's total wall clock (queue wait included)
// via context.WithTimeout. The trace ID is carried both on the record
// (status, flight events) and in the job context (hetwire.TraceIDFrom), so
// code running under the worker can label its output without reaching back
// to the server.
// Interactive-lane jobs additionally mark their context for the CPU-token
// pool's fast lane, so a run job preempts bulk batches at scenario
// granularity once a worker picks it up.
func (j *Job) arm(parent context.Context, deadline time.Duration) {
	parent = hetwire.WithTraceID(parent, j.TraceID)
	parent = tenant.NewContext(parent, j.tenant)
	if j.lane == laneInteractive {
		parent = batch.WithInteractive(parent)
	}
	j.deadline = deadline
	if deadline > 0 {
		j.ctx, j.cancel = context.WithTimeout(parent, deadline)
	} else {
		j.ctx, j.cancel = context.WithCancel(parent)
	}
}

// hit ends a job at submission, answered from the cache (frame is a run's
// stored result; a batch's frames are already published): done, a cache
// hit, no queue_wait, and one span, the lookup that started at lookupStart.
func (j *Job) hit(frame []byte, lookupStart, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.started = j.submitted
	j.spans.observe(spanCacheLookup, lookupStart, now.Sub(lookupStart))
	if j.progress == nil {
		j.body, j.ipc = frame, ipcOf(frame)
	}
	j.cacheHit = true
	j.endLocked(StateDone, now)
}

// claim transitions queued -> running; it returns false when the job was
// cancelled while waiting in the queue. The queue_wait span is closed here:
// submission to claim is exactly the time spent waiting for a worker.
func (j *Job) claim(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.spans.observe(spanQueueWait, j.submitted, now.Sub(j.submitted))
	return true
}

// finish records the terminal outcome. Cancellation wins over errors so a
// job cancelled mid-run reports "cancelled", not the context error; a
// deadline expiry is a failure (the job did not do what was asked) with an
// explicit message rather than a bare context error.
func (j *Job) finish(body []byte, cacheHit bool, ipc float64, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	state := StateFailed
	switch {
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		j.errMsg = fmt.Sprintf("deadline exceeded (budget %s, wall %s)",
			j.deadline, now.Sub(j.submitted).Round(time.Millisecond))
	case err != nil && errors.Is(err, context.Canceled):
		state = StateCancelled
		j.errMsg = "cancelled"
	case err != nil:
		j.errMsg = err.Error()
	default:
		state = StateDone
		j.body = body
		j.cacheHit = cacheHit
		j.ipc = ipc
	}
	j.endLocked(state, now)
}

// finishPanic resolves the job after a worker panic: failed, with the panic
// value as the error and the stack trace preserved in failure_log. It
// reports false when the job had already ended.
func (j *Job) finishPanic(panicVal any, stack []byte, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.errMsg = fmt.Sprintf("worker panic: %v", panicVal)
	j.failureLog = string(stack)
	j.endLocked(StateFailed, now)
	return true
}

// markCancelled resolves a still-queued job without running it.
func (j *Job) markCancelled(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.errMsg = "cancelled"
	j.endLocked(StateCancelled, now)
	return true
}

// endLocked moves the job to its terminal state, fills a batch job's
// unresolved scenarios with cancelled frames, and records the job's one
// job_done event. A poller, streamer or waiter sees the state only through
// j.mu, the published frames or j.done, so all of it is in place before
// anyone can observe the end. Called with j.mu held.
func (j *Job) endLocked(state JobState, now time.Time) {
	j.progress.resolveRest()
	j.state = state
	j.finished = now
	j.flight.Record(flight.Event{
		Kind:   flight.KindJobDone,
		Trace:  j.TraceID,
		Tenant: j.tenant.Name(),
		Job:    j.ID,
		Lane:   j.lane.String(),
		Reason: string(state),
		DurMS:  float64(now.Sub(j.submitted)) / float64(time.Millisecond),
	})
	close(j.done)
}

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// JobStatus is the JSON view of a job served by the jobs endpoints.
type JobStatus struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Tenant is the resolved tenant the job was submitted by ("anonymous"
	// for keyless submissions); Lane is its scheduler class ("interactive"
	// for single-scenario runs, "bulk" for batches).
	Tenant   string   `json:"tenant,omitempty"`
	Lane     string   `json:"lane,omitempty"`
	State    JobState `json:"state"`
	CacheHit bool     `json:"cache_hit,omitempty"`
	IPC      float64  `json:"ipc,omitempty"`
	Error    string   `json:"error,omitempty"`
	// FailureLog carries the worker's stack trace when the job failed to a
	// contained panic.
	FailureLog string    `json:"failure_log,omitempty"`
	DeadlineMS float64   `json:"deadline_ms,omitempty"`
	Submitted  time.Time `json:"submitted"`
	WallMS     float64   `json:"wall_ms,omitempty"`
	QueueMS    float64   `json:"queue_ms,omitempty"`
	// TraceID is the request-trace identifier the job runs under; pass it as
	// X-Hetwire-Trace on related requests to correlate the daemon's flight
	// events.
	TraceID string `json:"trace_id,omitempty"`
	// Spans is the per-phase timing breakdown (queue_wait, cpu_wait,
	// cache_lookup, sim_run, result_encode), milliseconds relative to
	// submission. Batch jobs merge per-scenario phases into one span per
	// name.
	Spans []Span `json:"spans,omitempty"`
	// Batch is the per-scenario progress of a batch job, available from
	// submission on — a poll during the run sees completed scenarios before
	// the job reaches a terminal state.
	Batch  *BatchStatus    `json:"batch,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Status snapshots the job. Result bodies are included only when done and
// withResult is set (list views stay small).
func (j *Job) Status(withResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.ID,
		Kind:       j.Kind,
		Tenant:     j.tenant.Name(),
		Lane:       j.lane.String(),
		State:      j.state,
		CacheHit:   j.cacheHit,
		IPC:        j.ipc,
		Error:      j.errMsg,
		FailureLog: j.failureLog,
		Submitted:  j.submitted,
		TraceID:    j.TraceID,
		Spans:      j.spans.snapshot(),
	}
	if j.deadline > 0 {
		st.DeadlineMS = float64(j.deadline) / float64(time.Millisecond)
	}
	if !j.started.IsZero() {
		st.QueueMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		if !j.finished.IsZero() {
			st.WallMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if withResult && j.state == StateDone {
		st.Result = j.resultJSONLocked()
	}
	// The progress pointer is immutable after submission and has its own
	// lock. A done batch job is a cache hit when every scenario was.
	if st.Batch = j.progress.snapshot(withResult); st.Batch != nil {
		st.CacheHit = j.state == StateDone && st.Batch.CacheHits == st.Batch.Total
	}
	return st
}

// RawResult returns a run job's stored result frame exactly as the worker
// produced it, without any conversion. This is the zero-copy serving path: a
// binary-negotiating client gets the cached frame bytes with no decode.
// Batch jobs keep no body beside their frames; they stream.
func (j *Job) RawResult() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.body
}

// resultJSONLocked returns the JSON view of the result — a run job's frame,
// or a batch job's frames assembled into the batch stream — converting it on
// first demand and memoizing it (polling clients that want JSON pay the
// decode once per job, not per poll). A run job's view comes from its cache
// entry, which renders it once for every job and request that shares the
// entry. Called with j.mu held.
func (j *Job) resultJSONLocked() json.RawMessage {
	if j.jsonBody == nil && j.jsonErr == nil {
		j.jsonBody, j.jsonErr = j.decodeResultLocked()
	}
	return j.jsonBody
}

func (j *Job) decodeResultLocked() ([]byte, error) {
	if j.progress == nil {
		view, _, err := j.cache.View(j.key, j.body)
		return view, err
	}
	body, err := j.progress.stream()
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeBatch(body)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// release ends a finished job's context, so its deadline timer does not
// outlive it, and snapshots what settle accounts.
func (j *Job) release() outcome {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	return outcome{
		tenant:    j.tenant,
		state:     j.state,
		submitted: j.submitted,
		started:   j.started,
		finished:  j.finished,
		spans:     j.spans.snapshot(),
	}
}

// Errors the queue reports to submitters.
var (
	ErrQueueFull = errors.New("server: job queue is full")
	ErrDraining  = errors.New("server: draining, not accepting jobs")
)

// BatchPointStatus is one scenario's live state within a batch job, derived
// from its published frame.
type BatchPointStatus struct {
	Index     int     `json:"index"`
	Benchmark string  `json:"benchmark,omitempty"`
	Model     string  `json:"model,omitempty"`
	Clusters  int     `json:"clusters,omitempty"`
	N         uint64  `json:"n"`
	State     string  `json:"state"` // "pending", "done", or "failed"
	IPC       float64 `json:"ipc,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// BatchStatus summarises a batch job's progress; Points carries the
// per-scenario detail on full status reads.
type BatchStatus struct {
	Total     int                `json:"total"`
	Completed int                `json:"completed"`
	Failed    int                `json:"failed"`
	CacheHits int                `json:"cache_hits"`
	Points    []BatchPointStatus `json:"points,omitempty"`
}

// batchProgress is a batch job's one record of its scenarios: the expanded
// requests and their cache keys, one published TypeScenario frame per
// index, and the running trailer counts those frames add up to. A frame is
// published once, as its scenario resolves — by admission on a cache hit,
// by a local scenario run, or by the coordinator on an upload — and the
// job's terminal transition fills every index still unresolved with a
// cancelled frame. Status polls, the streaming endpoint and the JSON result
// all read the frames, which is what makes partial batch results visible
// while the job is still running. Every publication closes the current
// notify channel so blocked streamers re-check.
type batchProgress struct {
	mu sync.Mutex
	// reqs, keys and pending are immutable after construction: the
	// expansion, each scenario's cache key, and the indices admission found
	// uncached (ascending), which a worker or the coordinator runs.
	reqs    []hetwire.RunRequest
	keys    []string
	pending []int
	frames  [][]byte
	trailer wire.BatchTrailer
	notify  chan struct{}
}

// newBatchProgress builds a batch's record at admission, publishing each
// scenario whose stored result frame the lookup found (nil on a miss).
func newBatchProgress(reqs []hetwire.RunRequest, keys []string, cached [][]byte) *batchProgress {
	p := &batchProgress{
		reqs:    reqs,
		keys:    keys,
		frames:  make([][]byte, len(reqs)),
		trailer: wire.BatchTrailer{Total: len(reqs)},
		notify:  make(chan struct{}),
	}
	for i, fr := range cached {
		if fr == nil {
			p.pending = append(p.pending, i)
		} else {
			p.publish(i, fr, true, nil)
		}
	}
	return p
}

// publish publishes scenario i's outcome. A result frame that cannot be
// embedded publishes that failure instead.
func (p *batchProgress) publish(i int, body []byte, hit bool, err error) {
	fr, encErr := scenarioFrame(i, p.reqs[i], body, hit, err)
	if encErr != nil {
		fr = errorFrame(i, p.reqs[i], encErr)
	}
	p.publishFrame(i, fr)
}

// publishFrame records scenario i's frame, folds its header flags into the
// trailer and wakes streamers. The first frame for an index wins; later
// ones are dropped. Frames arrive in completion order; streamers serialise
// them back into canonical index order.
func (p *batchProgress) publishFrame(i int, frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setLocked(i, frame)
}

// setLocked is publishFrame with p.mu held.
func (p *batchProgress) setLocked(i int, frame []byte) {
	if p.frames[i] != nil {
		return
	}
	h, _ := wire.PeekHeader(frame) // every frame was encoded by wire.AppendScenario
	p.frames[i] = frame
	switch {
	case h.Flags&wire.FlagError != 0:
		p.trailer.Failed++
	case h.Flags&wire.FlagCached != 0:
		p.trailer.CacheHits++
		fallthrough
	default:
		p.trailer.Completed++
	}
	close(p.notify)
	p.notify = make(chan struct{})
}

// resolveRest fills every unresolved index with a cancelled frame. The job's
// terminal transition calls it once, so a finished job — cancelled while
// queued, past its deadline, or killed by a worker panic — still carries
// every expansion index exactly once. A nil receiver is a non-batch job.
func (p *batchProgress) resolveRest() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, fr := range p.frames {
		if fr != nil {
			continue
		}
		p.setLocked(i, errorFrame(i, p.reqs[i], context.Canceled))
	}
}

// await blocks until scenario i's frame is published and returns it, or
// returns nil when ctx ends first. The notify channel is taken under the
// same lock as the frame check, so a publication in between closes exactly
// the channel waited on.
func (p *batchProgress) await(ctx context.Context, i int) []byte {
	for {
		p.mu.Lock()
		fr, ch := p.frames[i], p.notify
		p.mu.Unlock()
		if fr != nil {
			return fr
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil
		}
	}
}

// total returns the expanded scenario count.
func (p *batchProgress) total() int { return len(p.reqs) }

// counts returns the running trailer.
func (p *batchProgress) counts() wire.BatchTrailer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.trailer
}

// stream assembles the canonical batch stream — header, every frame in
// index order, trailer — by byte copy. Only a terminal job has every frame.
func (p *batchProgress) stream() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out, err := wire.AppendBatchHeader(nil, len(p.frames))
	if err != nil {
		return nil, err
	}
	for _, fr := range p.frames {
		out = append(out, fr...)
	}
	return wire.AppendBatchTrailer(out, p.trailer)
}

// snapshot renders the progress; nil receiver (non-batch jobs) yields nil.
// Points come from the frames: header flags for the state, the summary word
// for the IPC, and the error text from wire.DecodeScenario, which never
// decodes a result payload.
func (p *batchProgress) snapshot(withPoints bool) *BatchStatus {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &BatchStatus{
		Total:     p.trailer.Total,
		Completed: p.trailer.Completed,
		Failed:    p.trailer.Failed,
		CacheHits: p.trailer.CacheHits,
	}
	if !withPoints {
		return st
	}
	st.Points = make([]BatchPointStatus, len(p.reqs))
	for i := range p.reqs {
		req := &p.reqs[i]
		pt := &st.Points[i]
		*pt = BatchPointStatus{Index: i, Benchmark: req.Benchmark, Model: req.Model,
			Clusters: req.Clusters, N: req.Instructions(), State: "pending"}
		if pt.Benchmark == "" && len(req.Benchmarks) > 0 {
			pt.Benchmark = strings.Join(req.Benchmarks, "+")
		}
		if p.frames[i] == nil {
			continue
		}
		h, _ := wire.PeekHeader(p.frames[i])
		if h.Flags&wire.FlagError != 0 {
			pt.State = "failed"
			if sc, err := wire.DecodeScenario(p.frames[i]); err == nil {
				pt.Error = sc.Error
			}
			continue
		}
		pt.State, pt.IPC, pt.Cached = "done", h.SummaryFloat(), h.Flags&wire.FlagCached != 0
	}
	return st
}
