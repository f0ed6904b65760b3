package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"hetwire"
	"hetwire/internal/obs/flight"
	"hetwire/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// LeaseSize is the default number of scenarios per work lease (default 8).
	LeaseSize int
	// LeaseTTL is how long a node has to upload a lease's results before its
	// indices are re-dispatched (default 30s).
	LeaseTTL time.Duration
	// Heartbeat is the check-in cadence announced to nodes (default 5s).
	Heartbeat time.Duration
	// DeadAfter is how long a node may stay silent — no heartbeat, lease
	// request, cache check, or upload — before it is declared dead and its
	// leases expire immediately (default 3×Heartbeat).
	DeadAfter time.Duration
	// Poll is the idle-poll hint returned with empty lease responses
	// (default 200ms).
	Poll time.Duration
	// Cache is the federated content-addressed result store: cache checks
	// consult it, uploads populate it, and skip markers are filled from it.
	// The hetwired coordinator passes its own LRU result cache, so cluster
	// results and single-box results share one store. Nil disables
	// federation (every scenario simulates).
	Cache ResultCache
	// Flight, when set, receives lease-lifecycle events (grant, upload,
	// expire) from the coordinator. Nil records nothing.
	Flight *flight.Recorder
	// Logger receives lease lifecycle logs (default: discard).
	Logger *log.Logger
	// Now is the clock (default time.Now); tests inject a fake to drive
	// lease expiry and node death deterministically.
	Now func() time.Time
}

// ResultCache is the coordinator's view of a content-addressed result store.
type ResultCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, body []byte)
}

func (o Options) withDefaults() Options {
	if o.LeaseSize <= 0 {
		o.LeaseSize = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 5 * time.Second
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3 * o.Heartbeat
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = log.New(discardWriter{}, "", 0)
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// slot states for one scenario inside a cluster job.
const (
	slotPending = iota // waiting to be leased
	slotLeased         // inside a live lease
	slotDone           // result bytes recorded
	slotFailed         // the node reported a scenario-level error
	slotCancelled
)

// slot is one scenario's state inside a cluster job.
type slot struct {
	state  int
	req    hetwire.RunRequest
	key    string // content-addressed request identity (CacheKey)
	body   []byte // the result frame
	cached bool   // filled via the federated cache rather than a fresh run
	node   string
	errMsg string
	reason string
	// redispatched marks an index whose lease expired at least once; the
	// next lease containing it counts toward the re-dispatch metric.
	redispatched bool
}

// jobState is one batch flowing through the cluster.
type jobState struct {
	id      string
	traceID string
	// tenant is the submitting tenant's name, stamped onto every lease the
	// job produces so node-side flight events attribute work to its tenant.
	// Accounting (sim-CPU billing, fair-share charging) stays on the
	// coordinator; the name on the wire is observability only.
	tenant  string
	slots   []slot
	pending []int // sorted scenario indices awaiting a lease
	open    int   // slots not yet in a terminal state
	done    chan struct{}
	// spanDur accumulates node-reported per-lease phase durations (ms) by
	// name; the server merges them into the job's span breakdown.
	spanDur map[string]float64
	// fedHits counts slots filled from the federated cache.
	fedHits int
	// nodeEvents holds the flight-recorder events nodes attached to their
	// heartbeats for this job, in arrival order — the coordinator-side index
	// behind cluster-wide causal trace aggregation.
	nodeEvents []flight.Event
}

// nodeState tracks one registered node.
type nodeState struct {
	id       string
	name     string
	caps     NodeCaps
	lastSeen time.Time
	leases   map[string]bool
}

// leaseState is one outstanding work lease.
type leaseState struct {
	id      string
	jobID   string
	nodeID  string
	start   int
	end     int
	expires time.Time
}

// Stats is a point-in-time snapshot of the coordinator's counters, rendered
// by the daemon's /metrics.
type Stats struct {
	NodesAlive        int
	NodesRegistered   uint64 // lifetime registrations
	NodesDead         uint64 // nodes declared dead on missed heartbeats
	LeasesIssued      uint64
	LeasesExpired     uint64
	LeasesOutstanding int
	// ScenariosRedispatched counts scenario-index re-leases after an expiry.
	ScenariosRedispatched uint64
	UploadsAccepted       uint64
	UploadsDuplicate      uint64
	// UploadsStale counts dropped scenario errors and skip markers from leases
	// that no longer owned their slots (expired and possibly re-dispatched):
	// only result bodies are trusted from stale leases, so the batch outcome
	// cannot depend on straggler interleaving.
	UploadsStale uint64
	// UploadConflicts counts duplicate uploads whose frame bytes disagreed
	// with the recorded result — impossible for deterministic simulations; a
	// non-zero value means a node is misbehaving (first result wins).
	UploadConflicts uint64
	FederatedHits   uint64
	JobsSubmitted   uint64
	JobsCompleted   uint64
	JobsCancelled   uint64
}

// Coordinator is the cluster master: it owns node membership, the lease
// table, and every in-flight cluster job. All methods are safe for
// concurrent use; the HTTP layer in internal/server is a thin shim over
// them.
type Coordinator struct {
	opts Options

	mu        sync.Mutex
	nodes     map[string]*nodeState
	jobs      map[string]*jobState
	leases    map[string]*leaseState
	jobOrder  []string // submission order; leases are filled oldest-first
	nextNode  uint64
	nextJob   uint64
	nextLease uint64
	compat    string
	stats     Stats
}

// New builds a coordinator.
func New(opts Options) *Coordinator {
	return &Coordinator{
		opts:   opts.withDefaults(),
		nodes:  make(map[string]*nodeState),
		jobs:   make(map[string]*jobState),
		leases: make(map[string]*leaseState),
		compat: CompatHash(),
	}
}

// Register admits a node after checking protocol and simulator
// compatibility, assigning its authoritative ID.
func (c *Coordinator) Register(req *RegisterRequest) (*RegisterResponse, error) {
	if req.Protocol != ProtocolVersion {
		return nil, reqErr(ReasonIncompatibleNode,
			"node speaks protocol %d, coordinator speaks %d", req.Protocol, ProtocolVersion)
	}
	if req.CompatHash != c.compat {
		return nil, reqErr(ReasonIncompatibleNode,
			"node compat hash %q does not match coordinator %q (rebuild the node from the same source)",
			req.CompatHash, c.compat)
	}
	name := req.Name
	if name == "" {
		name = "node"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.opts.Now())
	c.nextNode++
	n := &nodeState{
		id:       fmt.Sprintf("n-%04d", c.nextNode),
		name:     name,
		caps:     req.Caps,
		lastSeen: c.opts.Now(),
		leases:   make(map[string]bool),
	}
	c.nodes[n.id] = n
	c.stats.NodesRegistered++
	c.opts.Logger.Printf("cluster node registered id=%s name=%s gomaxprocs=%d", n.id, n.name, n.caps.GoMaxProcs)
	return &RegisterResponse{
		NodeID:      n.id,
		HeartbeatMS: c.opts.Heartbeat.Milliseconds(),
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		PollMS:      c.opts.Poll.Milliseconds(),
	}, nil
}

// Heartbeat refreshes a node's liveness. An unknown node gets Known=false
// rather than an error: after a coordinator restart every node is unknown,
// and the response tells them to re-register.
func (c *Coordinator) Heartbeat(req *HeartbeatRequest) *HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.opts.Now())
	n, ok := c.nodes[req.NodeID]
	if !ok {
		return &HeartbeatResponse{Known: false}
	}
	n.lastSeen = c.opts.Now()
	// Index piggybacked node flight events under the jobs they concern; the
	// node stamps its own name, the job ID routes them. Events for finished
	// (taken) jobs are dropped — there is no record left to attach them to.
	for _, ev := range req.Events {
		if j, ok := c.jobs[ev.Job]; ok {
			j.nodeEvents = append(j.nodeEvents, ev)
		}
	}
	return &HeartbeatResponse{Known: true}
}

// NodeEvents copies the node flight events indexed so far for a live job
// (empty once the job has been taken).
func (c *Coordinator) NodeEvents(jobID string) []flight.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil
	}
	return append([]flight.Event(nil), j.nodeEvents...)
}

// Lease hands the requesting node the next shard of pending work: up to Max
// (or the default lease size) scenario indices from the oldest job with
// pending work, contiguous when possible.
func (c *Coordinator) Lease(req *LeaseRequest) (*LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.sweepLocked(now)
	n, ok := c.nodes[req.NodeID]
	if !ok {
		return nil, reqErr(ReasonUnknownNode, "unknown node %q (re-register)", req.NodeID)
	}
	n.lastSeen = now

	size := req.Max
	if size <= 0 || size > c.opts.LeaseSize {
		size = c.opts.LeaseSize
	}
	for _, jobID := range c.jobOrder {
		j, ok := c.jobs[jobID]
		if !ok || len(j.pending) == 0 {
			continue
		}
		// Take the longest contiguous run of pending indices from the front,
		// capped at the lease size: initial dispatch produces pure ranges,
		// re-dispatch after expiry produces the expired range again.
		start := j.pending[0]
		count := 1
		for count < len(j.pending) && count < size && j.pending[count] == start+count {
			count++
		}
		indices := j.pending[:count]
		j.pending = j.pending[count:]

		c.nextLease++
		ls := &leaseState{
			id:      fmt.Sprintf("l-%06d", c.nextLease),
			jobID:   jobID,
			nodeID:  n.id,
			start:   start,
			end:     start + count,
			expires: now.Add(c.opts.LeaseTTL),
		}
		c.leases[ls.id] = ls
		n.leases[ls.id] = true
		scenarios := make([]hetwire.RunRequest, count)
		for i, idx := range indices {
			sl := &j.slots[idx]
			sl.state = slotLeased
			if sl.redispatched {
				c.stats.ScenariosRedispatched++
			}
			scenarios[i] = sl.req
		}
		c.stats.LeasesIssued++
		c.opts.Flight.Record(flight.Event{
			Kind:   flight.KindLeaseGrant,
			Trace:  j.traceID,
			Tenant: j.tenant,
			Job:    jobID,
			Lease:  ls.id,
			Node:   n.id,
			Detail: fmt.Sprintf("range=[%d,%d)", ls.start, ls.end),
		})
		c.opts.Logger.Printf("cluster lease issued id=%s job=%s node=%s range=[%d,%d) tenant=%s trace=%s",
			ls.id, jobID, n.id, ls.start, ls.end, j.tenant, j.traceID)
		return &LeaseResponse{Lease: &Lease{
			ID:        ls.id,
			JobID:     jobID,
			TraceID:   j.traceID,
			Tenant:    j.tenant,
			Start:     ls.start,
			End:       ls.end,
			Scenarios: scenarios,
			TTLMS:     c.opts.LeaseTTL.Milliseconds(),
		}}, nil
	}
	return &LeaseResponse{RetryMS: c.opts.Poll.Milliseconds()}, nil
}

// CacheCheck answers the federated cache index query: Known[i] reports
// whether Keys[i] is resident in the coordinator's result cache right now.
// A positive answer is a hint, not a promise — the entry may be evicted
// before the node's skip marker arrives, in which case the index is
// re-queued — so correctness never depends on the answer.
func (c *Coordinator) CacheCheck(req *CacheCheckRequest) (*CacheCheckResponse, error) {
	if len(req.Keys) > MaxCacheCheckKeys {
		return nil, reqErr(hetwire.ReasonBadRequest,
			"cache check carries %d keys, limit %d (split the check)", len(req.Keys), MaxCacheCheckKeys)
	}
	c.mu.Lock()
	now := c.opts.Now()
	c.sweepLocked(now)
	n, ok := c.nodes[req.NodeID]
	if ok {
		n.lastSeen = now
	}
	cache := c.opts.Cache
	c.mu.Unlock()
	if !ok {
		return nil, reqErr(ReasonUnknownNode, "unknown node %q (re-register)", req.NodeID)
	}
	known := make([]bool, len(req.Keys))
	if cache != nil {
		for i, k := range req.Keys {
			_, known[i] = cache.Get(k)
		}
	}
	return &CacheCheckResponse{Known: known}, nil
}

// Upload records a lease's decoded upload stream (wire.DecodeUpload). It is
// deliberately forgiving about result *frames*: a frame for an expired or
// unknown lease is still accepted (the work is correct whoever did it —
// results are content-addressed), already-filled slots count as duplicates
// and change nothing, and a finished job answers JobDone so stragglers stop
// resending. Scenario *errors* are the exception: only the lease that still
// owns the slot may fail it, because a straggler's transient error
// overriding a healthy re-dispatch would make the batch outcome depend on
// interleaving.
func (c *Coordinator) Upload(hdr *wire.UploadHeader, results []wire.UploadResult) (*UploadResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.sweepLocked(now)
	n, ok := c.nodes[hdr.NodeID]
	if !ok {
		return nil, reqErr(ReasonUnknownNode, "unknown node %q (re-register)", hdr.NodeID)
	}
	n.lastSeen = now
	// owned remembers the index range this upload's lease still held on
	// arrival. An expired lease (or one belonging to another node) owns
	// nothing: its scenario errors and requeue requests are stale.
	ownStart, ownEnd := 0, 0
	if ls, ok := c.leases[hdr.LeaseID]; ok && ls.nodeID == n.id {
		ownStart, ownEnd = ls.start, ls.end
		c.releaseLeaseLocked(ls)
	}
	owned := func(idx int) bool { return idx >= ownStart && idx < ownEnd }
	j, ok := c.jobs[hdr.JobID]
	if !ok {
		return &UploadResponse{JobDone: true}, nil
	}
	resp := &UploadResponse{}
	for i := range results {
		r := &results[i]
		if r.Index < 0 || r.Index >= len(j.slots) {
			return nil, reqErr(hetwire.ReasonBadRequest,
				"result index %d out of range for job %s (%d scenarios)", r.Index, j.id, len(j.slots))
		}
		// Validate the frame (CRC, strict payload decode, summary agreement)
		// before any comparison or store: the slot table and the federated
		// cache hold exactly the bytes the node's simulation produced.
		frame := r.Frame
		if len(frame) > 0 {
			if err := wire.ValidateResultFrame(frame); err != nil {
				return nil, reqErr(hetwire.ReasonBadRequest, "result index %d frame rejected: %v", r.Index, err)
			}
		}
		sl := &j.slots[r.Index]
		// A straggler result can land while its index sits in the pending
		// queue (lease expired, index not yet re-leased). Accepting it must
		// also retire the queue entry, or the index would be re-leased over
		// the recorded result and resolve — decrementing j.open — twice.
		wasPending := sl.state == slotPending
		settle := func() {
			j.open--
			if wasPending {
				j.pending = removeSorted(j.pending, r.Index)
			}
		}
		switch {
		case sl.state == slotDone || sl.state == slotFailed || sl.state == slotCancelled:
			// Straggler after re-dispatch: verify the duplicate agrees.
			if len(frame) > 0 && sl.state == slotDone && !bytes.Equal(frame, sl.body) {
				c.stats.UploadConflicts++
				c.opts.Logger.Printf("cluster upload CONFLICT job=%s index=%d node=%s (first result kept)",
					j.id, r.Index, n.id)
			} else {
				c.stats.UploadsDuplicate++
			}
			resp.Duplicate++
		case r.Error != "":
			if !owned(r.Index) {
				// Stale error from an expired lease: the slot is pending or
				// re-leased, and a healthy node's result must win. Drop it.
				c.stats.UploadsStale++
				resp.Duplicate++
				continue
			}
			sl.state = slotFailed
			sl.errMsg = r.Error
			sl.reason = r.Reason
			sl.node = n.id
			settle()
			c.stats.UploadsAccepted++
			resp.Accepted++
		case r.Skipped:
			// Fill from the federated cache; if the entry vanished, re-queue —
			// but only a slot this lease still owns may re-enter the queue. A
			// stale skip marker's slot is already pending or owned by another
			// live lease, and queueing it again would duplicate the index.
			body, ok := c.cacheGet(sl.key)
			if ok && wire.ValidateResultFrame(body) != nil {
				// The cached entry is not a valid result frame (corrupt, or a
				// foreign value under our key): treat it as evicted rather
				// than let bad bytes into the slot table.
				ok = false
			}
			if !ok {
				if owned(r.Index) {
					sl.state = slotPending
					j.pending = insertSorted(j.pending, r.Index)
					resp.Requeued = append(resp.Requeued, r.Index)
				} else {
					c.stats.UploadsStale++
					resp.Duplicate++
				}
				continue
			}
			sl.state = slotDone
			sl.body = body
			sl.cached = true
			sl.node = n.id
			settle()
			j.fedHits++
			c.stats.FederatedHits++
			c.stats.UploadsAccepted++
			resp.Accepted++
		case len(frame) == 0:
			return nil, reqErr(hetwire.ReasonBadRequest,
				"result index %d carries neither frame, error, nor skip marker", r.Index)
		default:
			sl.state = slotDone
			sl.body = append([]byte(nil), frame...)
			sl.node = n.id
			settle()
			c.stats.UploadsAccepted++
			resp.Accepted++
			if c.opts.Cache != nil && sl.key != "" {
				c.opts.Cache.Put(sl.key, sl.body)
			}
		}
	}
	for _, sp := range hdr.Spans {
		j.spanDur[sp.Name] += sp.DurMS
	}
	c.opts.Flight.Record(flight.Event{
		Kind:   flight.KindLeaseUpload,
		Trace:  j.traceID,
		Tenant: j.tenant,
		Job:    j.id,
		Lease:  hdr.LeaseID,
		Node:   n.id,
		Detail: fmt.Sprintf("accepted=%d duplicate=%d requeued=%d", resp.Accepted, resp.Duplicate, len(resp.Requeued)),
	})
	if j.open == 0 {
		// A straggler upload can land after the job already completed (every
		// result a duplicate); complete exactly once.
		select {
		case <-j.done:
		default:
			c.completeLocked(j)
		}
		resp.JobDone = true
	}
	return resp, nil
}

// cacheGet reads the federated cache. Called with c.mu held; the cache has
// its own lock but never calls back into the coordinator.
func (c *Coordinator) cacheGet(key string) ([]byte, bool) {
	if c.opts.Cache == nil || key == "" {
		return nil, false
	}
	return c.opts.Cache.Get(key)
}

// Submit expands and registers a batch as a cluster job on behalf of the
// named tenant ("" for pre-tenancy callers and open mode). The returned
// channel closes when every scenario reaches a terminal state (or the job
// is cancelled); collect the outcome with TakeFrames.
func (c *Coordinator) Submit(batch *hetwire.BatchRequest, traceID, tenant string) (jobID string, done <-chan struct{}, err error) {
	if err := batch.Validate(); err != nil {
		return "", nil, err
	}
	reqs, err := batch.Expand()
	if err != nil {
		return "", nil, err
	}
	j := &jobState{
		traceID: traceID,
		tenant:  tenant,
		slots:   make([]slot, len(reqs)),
		pending: make([]int, len(reqs)),
		open:    len(reqs),
		done:    make(chan struct{}),
		spanDur: make(map[string]float64),
	}
	for i := range reqs {
		key, err := reqs[i].CacheKey()
		if err != nil {
			return "", nil, err
		}
		j.slots[i] = slot{state: slotPending, req: reqs[i], key: key}
		j.pending[i] = i
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob++
	j.id = fmt.Sprintf("cj-%06d", c.nextJob)
	c.jobs[j.id] = j
	c.jobOrder = append(c.jobOrder, j.id)
	c.stats.JobsSubmitted++
	c.opts.Logger.Printf("cluster job submitted id=%s scenarios=%d tenant=%s trace=%s", j.id, len(reqs), tenant, traceID)
	return j.id, j.done, nil
}

// Cancel resolves a job's unfinished scenarios as cancelled and closes its
// done channel. Already-recorded results are kept (TakeFrames still
// returns them).
func (c *Coordinator) Cancel(jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return
	}
	select {
	case <-j.done:
		return // already complete
	default:
	}
	for i := range j.slots {
		sl := &j.slots[i]
		if sl.state == slotPending || sl.state == slotLeased {
			sl.state = slotCancelled
			j.open--
		}
	}
	j.pending = nil
	c.stats.JobsCancelled++
	c.opts.Logger.Printf("cluster job cancelled id=%s", j.id)
	close(j.done)
}

// completeLocked finishes a job whose last open slot just resolved.
func (c *Coordinator) completeLocked(j *jobState) {
	c.stats.JobsCompleted++
	c.opts.Logger.Printf("cluster job complete id=%s scenarios=%d federated_hits=%d", j.id, len(j.slots), j.fedHits)
	close(j.done)
}

// takeJob removes a job record from the coordinator and returns it.
func (c *Coordinator) takeJob(jobID string) (*jobState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return nil, false
	}
	delete(c.jobs, jobID)
	for i, id := range c.jobOrder {
		if id == jobID {
			c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
			break
		}
	}
	return j, true
}

// FrameOutcome summarises one scenario's terminal state for progress
// reporting next to its wire frame, derived from the slot table and the
// frame header alone — no result payload is decoded.
type FrameOutcome struct {
	IPC    float64
	Cached bool
	Error  string
}

// TakeFrames collects a finished (or cancelled) job as per-scenario wire
// frames and removes the job from the coordinator. Scenario results land at
// their expansion index and carry no node identity; recorded result frames
// are embedded verbatim — this path never decodes a result — so the batch
// stream assembled from these frames is bit-identical to local batch
// execution. Frames come back in expansion order with one outcome summary
// each, plus the node-reported span durations.
func (c *Coordinator) TakeFrames(jobID string) ([][]byte, []FrameOutcome, map[string]float64, error) {
	j, ok := c.takeJob(jobID)
	if !ok {
		return nil, nil, nil, reqErr(hetwire.ReasonBadRequest, "unknown cluster job %q", jobID)
	}
	frames := make([][]byte, len(j.slots))
	outcomes := make([]FrameOutcome, len(j.slots))
	for i := range j.slots {
		sl := &j.slots[i]
		sc := &wire.Scenario{Index: i, Request: sl.req}
		switch sl.state {
		case slotDone:
			h, err := wire.PeekHeader(sl.body)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("cluster: scenario %d result frame: %w", i, err)
			}
			sc.Result = sl.body
			sc.Cached = sl.cached
			outcomes[i] = FrameOutcome{IPC: h.SummaryFloat(), Cached: sl.cached}
		case slotFailed:
			sc.Error = sl.errMsg
			sc.Reason = sl.reason
			if sc.Reason == "" {
				sc.Reason = hetwire.ReasonInvalidRequest
			}
			outcomes[i] = FrameOutcome{Error: sc.Error}
		default: // cancelled (or, impossibly, still open)
			sc.Error = "cancelled"
			sc.Reason = "cancelled"
			outcomes[i] = FrameOutcome{Error: "cancelled"}
		}
		fr, err := wire.AppendScenario(nil, sc)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cluster: encoding scenario %d frame: %w", i, err)
		}
		frames[i] = fr
	}
	return frames, outcomes, j.spanDur, nil
}

// AwaitJob blocks until the job completes, ctx ends, or — because lease
// expiry and node death are only detected when the clock is consulted — a
// periodic sweep tick fires. Cancelling ctx cancels the job and drops its
// record: nobody is left to collect the finished results.
func (c *Coordinator) AwaitJob(ctx context.Context, jobID string, done <-chan struct{}) error {
	tick := time.NewTicker(c.sweepInterval())
	defer tick.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			c.Cancel(jobID)
			c.takeJob(jobID)
			return ctx.Err()
		case <-tick.C:
			c.Sweep()
		}
	}
}

// sweepInterval is how often AwaitJob forces a sweep: often enough to catch
// expiries promptly, bounded below for tiny test TTLs.
func (c *Coordinator) sweepInterval() time.Duration {
	d := c.opts.LeaseTTL / 4
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// Sweep runs one expiry pass with the coordinator's clock: leases past
// their deadline return their unfinished indices to the pending queue, and
// nodes silent past DeadAfter are declared dead (expiring their leases).
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.opts.Now())
}

// sweepLocked is Sweep with c.mu held; every protocol entry point calls it
// first, so expiry needs no background goroutine to make progress while
// traffic flows.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, n := range c.nodes {
		if now.Sub(n.lastSeen) > c.opts.DeadAfter {
			for lid := range n.leases {
				if ls, ok := c.leases[lid]; ok {
					c.expireLeaseLocked(ls, "node dead")
				}
			}
			delete(c.nodes, id)
			c.stats.NodesDead++
			c.opts.Logger.Printf("cluster node dead id=%s name=%s (silent for %s)", id, n.name, now.Sub(n.lastSeen))
		}
	}
	for _, ls := range c.leases {
		if now.After(ls.expires) {
			c.expireLeaseLocked(ls, "deadline passed")
		}
	}
}

// expireLeaseLocked returns a lease's unfinished indices to the pending
// queue (straggler re-dispatch) and drops the lease record.
func (c *Coordinator) expireLeaseLocked(ls *leaseState, why string) {
	j, ok := c.jobs[ls.jobID]
	requeued := 0
	if ok {
		for idx := ls.start; idx < ls.end; idx++ {
			sl := &j.slots[idx]
			if sl.state == slotLeased {
				sl.state = slotPending
				sl.redispatched = true
				j.pending = insertSorted(j.pending, idx)
				requeued++
			}
		}
	}
	c.releaseLeaseLocked(ls)
	c.stats.LeasesExpired++
	ev := flight.Event{
		Kind:   flight.KindLeaseExpire,
		Job:    ls.jobID,
		Lease:  ls.id,
		Node:   ls.nodeID,
		Reason: why,
		Detail: fmt.Sprintf("requeued=%d", requeued),
	}
	if ok {
		ev.Trace = j.traceID
		ev.Tenant = j.tenant
	}
	c.opts.Flight.Record(ev)
	c.opts.Logger.Printf("cluster lease expired id=%s job=%s node=%s requeued=%d (%s)",
		ls.id, ls.jobID, ls.nodeID, requeued, why)
}

// releaseLeaseLocked drops a lease record without touching slot state.
func (c *Coordinator) releaseLeaseLocked(ls *leaseState) {
	delete(c.leases, ls.id)
	if n, ok := c.nodes[ls.nodeID]; ok {
		delete(n.leases, ls.id)
	}
}

// insertSorted inserts idx into the sorted index queue, keeping expansion
// order: re-dispatched work is handed out lowest-index-first just like the
// initial sharding. The queue is a set — an index already present is left
// alone, so no interleaving can make the same scenario leasable twice.
func insertSorted(s []int, idx int) []int {
	i := sort.SearchInts(s, idx)
	if i < len(s) && s[i] == idx {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = idx
	return s
}

// removeSorted deletes idx from the sorted index queue if present: a slot
// resolved while sitting in the queue (straggler upload between lease expiry
// and re-lease) must not be handed out again.
func removeSorted(s []int, idx int) []int {
	i := sort.SearchInts(s, idx)
	if i < len(s) && s[i] == idx {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// NodeInfo is one registered node in the coordinator's listing.
type NodeInfo struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Caps     NodeCaps  `json:"caps"`
	Leases   int       `json:"leases"`
	LastSeen time.Time `json:"last_seen"`
}

// Nodes lists the currently-registered nodes, ordered by ID.
func (c *Coordinator) Nodes() []NodeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeInfo, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, NodeInfo{ID: n.id, Name: n.name, Caps: n.caps, Leases: len(n.leases), LastSeen: n.lastSeen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.NodesAlive = len(c.nodes)
	st.LeasesOutstanding = len(c.leases)
	return st
}
