package cluster

import (
	"bytes"
	"context"
	"fmt"
	"slices"
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
	// request, or upload — before it is declared dead and its leases expire
	// immediately (default 3×Heartbeat).
	DeadAfter time.Duration
	// Flight, when set, receives the coordinator's events: node joins and
	// deaths and the lease lifecycle (grant, upload, expire). Nil records
	// nothing.
	Flight *flight.Recorder
	// Now is the clock (default time.Now); tests inject a fake to drive
	// lease expiry and node death deterministically.
	Now func() time.Time
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
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// slot states for one scenario inside a cluster job.
const (
	slotPending = iota // waiting to be leased
	slotLeased         // inside a live lease; its lease record exists
	slotDone           // result bytes recorded
	slotFailed         // the node reported a scenario-level error
	slotCancelled
)

// slot is one scenario's state inside a cluster job. Its outcome lives in
// the TypeScenario frame published when it resolves; the slot keeps only
// what the lease protocol still needs.
type slot struct {
	state int
	body  []byte // the accepted result frame, compared against duplicates
	// redispatched marks an index whose lease ended unresolved at least
	// once; the next lease containing it counts toward the re-dispatch
	// metric.
	redispatched bool
}

// Publish receives one scenario's outcome the moment an upload resolves its
// slot: its TypeScenario frame and, for an accepted result, the validated
// result frame, which the daemon stores in its result cache (nil for a
// scenario error). The coordinator calls it at most once per slot, inside
// Upload and with the coordinator's lock held, so every publication lands
// before the job's done channel closes and before a Cancel; it must
// therefore not call back into the Coordinator. Slots a cancellation
// resolves are never published.
type Publish func(index int, frame, result []byte)

// jobState is one batch flowing through the cluster.
type jobState struct {
	id      string
	traceID string
	// tenant is the submitting tenant's name, stamped onto every lease the
	// job produces so node-side flight events attribute work to its tenant.
	// Accounting (sim-CPU billing, fair-share charging) stays on the
	// coordinator; the name on the wire is observability only.
	tenant string
	// reqs and keys are the daemon's expansion and each scenario's cache
	// key, both computed once at admission; slot i answers reqs[i].
	reqs    []hetwire.RunRequest
	keys    []string
	slots   []slot
	pending []int // sorted scenario indices awaiting a lease
	open    int   // slots not yet in a terminal state
	done    chan struct{}
	simMS   float64 // the uploads' node_sim total, which AwaitJob returns
	publish Publish // nil publishes nothing
}

// resolve publishes slot i's outcome as its TypeScenario frame. Result
// frames are validated before they reach a slot and indices are bounded by
// hetwire.MaxSweepPoints, so encoding cannot fail.
func (j *jobState) resolve(i int, sc wire.Scenario) {
	if j.publish == nil {
		return
	}
	sc.Index, sc.Request = i, j.reqs[i]
	fr, err := wire.AppendScenario(nil, &sc)
	if err != nil {
		panic(fmt.Sprintf("cluster: encoding scenario %d: %v", i, err))
	}
	j.publish(i, fr, sc.Result)
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
	// ScenariosRedispatched counts re-leases of scenario indices whose
	// earlier lease ended unresolved (expiry, node death, partial upload).
	ScenariosRedispatched uint64
	UploadsAccepted       uint64
	UploadsDuplicate      uint64
	// UploadsStale counts dropped scenario errors from leases that no longer
	// owned their slots (expired and possibly re-dispatched): only result
	// bodies are trusted from stale leases, so the batch outcome cannot
	// depend on straggler interleaving.
	UploadsStale uint64
	// UploadConflicts counts duplicate uploads whose frame bytes disagreed
	// with the recorded result — impossible for deterministic simulations; a
	// non-zero value means a node is misbehaving (first result wins).
	UploadConflicts uint64
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

	mu    sync.Mutex
	nodes map[string]*nodeState
	jobs  map[string]*jobState
	// leases holds every live lease. Every slotLeased slot lies inside one,
	// so an upload, an expiry or a node death always resolves or requeues
	// it.
	leases    map[string]*leaseState
	jobOrder  []string // submission order; leases are filled oldest-first
	nextNode  uint64
	nextLease uint64
	compat    string
	stats     Stats
	// work is closed and replaced whenever indices enter a job's pending
	// queue (wakeLocked), waking every Lease held open for want of work.
	work chan struct{}
}

// New builds a coordinator.
func New(opts Options) *Coordinator {
	return &Coordinator{
		opts:   opts.withDefaults(),
		nodes:  make(map[string]*nodeState),
		jobs:   make(map[string]*jobState),
		leases: make(map[string]*leaseState),
		compat: CompatHash(),
		work:   make(chan struct{}),
	}
}

// wakeLocked tells every held Lease that indices just entered a pending
// queue. Called with c.mu held.
func (c *Coordinator) wakeLocked() {
	close(c.work)
	c.work = make(chan struct{})
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
	c.opts.Flight.Record(flight.Event{Kind: flight.KindNodeJoin, Node: n.id, Detail: n.name})
	return &RegisterResponse{
		NodeID:      n.id,
		HeartbeatMS: c.opts.Heartbeat.Milliseconds(),
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
	return &HeartbeatResponse{Known: true}
}

// Lease hands the requesting node the next shard of pending work: up to Max
// (or the default lease size) scenario indices from the oldest job with
// pending work, contiguous when possible. When nothing is pending it holds
// the request until indices enter a pending queue or ctx ends; a hold that
// ends without work answers an empty LeaseResponse, not an error. An unknown
// node is rejected at once.
func (c *Coordinator) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	for {
		c.mu.Lock()
		lease, err := c.leaseLocked(req)
		// Take the wake channel under the same lock as the pending check: an
		// enqueue landing after the unlock closes exactly this channel, so
		// the hold cannot sleep through work that arrived in between.
		work := c.work
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if lease != nil {
			return &LeaseResponse{Lease: lease}, nil
		}
		select {
		case <-work:
		case <-ctx.Done():
			return &LeaseResponse{}, nil
		}
	}
}

// leaseLocked grants one lease, or returns nil when nothing is pending.
// Called with c.mu held.
func (c *Coordinator) leaseLocked(req *LeaseRequest) (*Lease, error) {
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
			scenarios[i] = j.reqs[idx]
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
		return &Lease{
			ID:        ls.id,
			JobID:     jobID,
			TraceID:   j.traceID,
			Tenant:    j.tenant,
			Start:     ls.start,
			End:       ls.end,
			Scenarios: scenarios,
		}, nil
	}
	return nil, nil
}

// Upload records a lease's decoded upload stream (wire.DecodeUpload). It
// validates every scenario before changing any state, so a rejected upload
// leaves the slot table and its lease as they were and publishes nothing: a
// scenario must answer its slot's request (same CacheKey), must not claim
// to be cached, and a result must be a valid result frame. It is deliberately
// forgiving about result *frames*: a frame for an expired or unknown lease
// is still accepted (the work is correct whoever did it — results are
// content-addressed), and already-filled slots count as duplicates and
// change nothing. Scenario *errors* are the exception: only the lease that
// still owns the slot may fail it, because a straggler's transient error
// overriding a healthy re-dispatch would make the batch outcome depend on
// interleaving. An upload from the lease's owner ends the lease; indices
// it left unresolved return to the pending queue at once.
func (c *Coordinator) Upload(hdr *wire.UploadHeader, scenarios []wire.Scenario) (*UploadResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.sweepLocked(now)
	n, ok := c.nodes[hdr.NodeID]
	if !ok {
		return nil, reqErr(ReasonUnknownNode, "unknown node %q (re-register)", hdr.NodeID)
	}
	n.lastSeen = now
	// own is the lease this upload answers, if it is still live and held by
	// the uploader. An expired lease (or one belonging to another node) owns
	// nothing: its scenario errors are stale.
	own, ok := c.leases[hdr.LeaseID]
	if !ok || own.nodeID != n.id || own.jobID != hdr.JobID {
		own = nil
	}
	j, ok := c.jobs[hdr.JobID]
	if !ok {
		// Unknown job, or one AwaitJob already dropped: nothing is left to fill.
		if own != nil {
			c.releaseLeaseLocked(own)
		}
		return &UploadResponse{}, nil
	}
	for i := range scenarios {
		sc := &scenarios[i]
		if sc.Index < 0 || sc.Index >= len(j.slots) {
			return nil, reqErr(hetwire.ReasonBadRequest,
				"scenario index %d out of range for job %s (%d scenarios)", sc.Index, j.id, len(j.slots))
		}
		// The result is stored under the slot's key, so it must answer the
		// slot's request: a node's request bytes may differ from the
		// daemon's (the lease JSON compacts a config document), its identity
		// may not.
		if key, err := sc.Request.CacheKey(); err != nil || key != j.keys[sc.Index] {
			return nil, reqErr(hetwire.ReasonBadRequest,
				"scenario %d does not carry the request it was leased for", sc.Index)
		}
		if sc.Cached {
			return nil, reqErr(hetwire.ReasonBadRequest,
				"scenario %d is flagged cached; a node uploads only what it simulated", sc.Index)
		}
		// Validate the frame (CRC, strict payload decode, summary agreement)
		// before any comparison or publication: the slot table and the
		// daemon's cache hold exactly the bytes the node's simulation
		// produced.
		if sc.Error == "" {
			if err := wire.ValidateResultFrame(sc.Result); err != nil {
				return nil, reqErr(hetwire.ReasonBadRequest, "scenario %d result rejected: %v", sc.Index, err)
			}
		}
	}
	owned := func(idx int) bool { return own != nil && idx >= own.start && idx < own.end }
	resp := &UploadResponse{}
	conflicts := 0
	for i := range scenarios {
		sc := &scenarios[i]
		sl := &j.slots[sc.Index]
		switch {
		case sl.state == slotDone || sl.state == slotFailed || sl.state == slotCancelled:
			// Straggler after re-dispatch: verify the duplicate agrees.
			if sc.Error == "" && sl.state == slotDone && !bytes.Equal(sc.Result, sl.body) {
				c.stats.UploadConflicts++
				conflicts++
			} else {
				c.stats.UploadsDuplicate++
			}
			resp.Duplicate++
			continue
		case sc.Error != "" && !owned(sc.Index):
			// Stale error from an expired lease: the slot is pending or
			// re-leased, and a healthy node's result must win. Drop it.
			c.stats.UploadsStale++
			resp.Duplicate++
			continue
		case sc.Error != "":
			sl.state = slotFailed
			reason := sc.Reason
			if reason == "" {
				reason = hetwire.ReasonInvalidRequest
			}
			j.resolve(sc.Index, wire.Scenario{Error: sc.Error, Reason: reason})
		default:
			sl.state = slotDone
			sl.body = append([]byte(nil), sc.Result...)
			j.resolve(sc.Index, wire.Scenario{Result: sl.body})
		}
		// A straggler result can land while its index sits in the pending
		// queue (lease expired, index not yet re-leased). Accepting it must
		// also retire the queue entry, or the index would be re-leased over
		// the recorded result and resolve — decrementing j.open — twice.
		j.pending = removeSorted(j.pending, sc.Index)
		j.open--
		c.stats.UploadsAccepted++
		resp.Accepted++
	}
	requeued := 0
	if own != nil {
		requeued = c.endLeaseLocked(own)
	}
	for _, sp := range hdr.Spans {
		if sp.Name == SpanSim {
			j.simMS += sp.DurMS
		}
	}
	detail := fmt.Sprintf("accepted=%d duplicate=%d requeued=%d", resp.Accepted, resp.Duplicate, requeued)
	if conflicts > 0 {
		detail += fmt.Sprintf(" conflict=%d", conflicts)
	}
	c.opts.Flight.Record(flight.Event{
		Kind:   flight.KindLeaseUpload,
		Trace:  j.traceID,
		Tenant: j.tenant,
		Job:    j.id,
		Lease:  hdr.LeaseID,
		Node:   n.id,
		Detail: detail,
	})
	if j.open == 0 {
		// A straggler upload can land after the job already completed (every
		// result a duplicate); complete exactly once.
		select {
		case <-j.done:
		default:
			c.stats.JobsCompleted++
			close(j.done)
		}
	}
	return resp, nil
}

// Submit registers the daemon's batch job id on behalf of the named tenant
// ("" in open mode). reqs and keys are its expansion and cache keys, both
// computed at admission, and index i is slot i; pending lists, ascending and
// never empty, the indices admission found uncached, the only ones leased.
// Each pending slot is published as its upload resolves it. The returned
// channel closes when every pending scenario reaches a terminal state (or
// the job is cancelled); wait on it with AwaitJob.
func (c *Coordinator) Submit(id string, reqs []hetwire.RunRequest, keys []string, pending []int, traceID, tenant string, publish Publish) <-chan struct{} {
	j := &jobState{
		id:      id,
		traceID: traceID,
		tenant:  tenant,
		reqs:    reqs,
		keys:    keys,
		slots:   make([]slot, len(reqs)),
		pending: slices.Clone(pending), // requeues insert in place; the daemon keeps its copy
		open:    len(pending),
		done:    make(chan struct{}),
		publish: publish,
	}
	for i := range j.slots {
		j.slots[i].state = slotDone // answered at admission: no upload resolves it
	}
	for _, i := range pending {
		j.slots[i].state = slotPending
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs[id] = j
	c.jobOrder = append(c.jobOrder, id)
	c.stats.JobsSubmitted++
	c.wakeLocked()
	return j.done
}

// Cancel resolves a job's unfinished scenarios as cancelled, without
// publishing them, and closes its done channel. Uploads for its slots then
// count as duplicates, so nothing is published for the job afterwards.
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
	close(j.done)
}

// AwaitJob blocks until the job completes, ctx ends, or — because lease
// expiry and node death are only detected when the clock is consulted — a
// periodic sweep tick fires. Ending ctx cancels the job first. Either way
// every slot that will ever be published has been by the time AwaitJob
// returns: it drops the job record and returns the job's node_sim total in
// milliseconds.
func (c *Coordinator) AwaitJob(ctx context.Context, jobID string, done <-chan struct{}) (float64, error) {
	tick := time.NewTicker(c.sweepInterval())
	defer tick.Stop()
	for {
		select {
		case <-done:
			return c.dropJob(jobID), nil
		case <-ctx.Done():
			c.Cancel(jobID)
			return c.dropJob(jobID), ctx.Err()
		case <-tick.C:
			c.Sweep()
		}
	}
}

// dropJob removes a job record and returns its node_sim total.
func (c *Coordinator) dropJob(jobID string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return 0
	}
	delete(c.jobs, jobID)
	c.jobOrder = slices.DeleteFunc(c.jobOrder, func(id string) bool { return id == jobID })
	return j.simMS
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
			c.opts.Flight.Record(flight.Event{Kind: flight.KindNodeDead, Node: id, Detail: n.name})
			for lid := range n.leases {
				if ls, ok := c.leases[lid]; ok {
					c.expireLeaseLocked(ls, "node dead")
				}
			}
			delete(c.nodes, id)
			c.stats.NodesDead++
		}
	}
	for _, ls := range c.leases {
		if now.After(ls.expires) {
			c.expireLeaseLocked(ls, "deadline passed")
		}
	}
}

// expireLeaseLocked ends a lease past its deadline (straggler re-dispatch).
func (c *Coordinator) expireLeaseLocked(ls *leaseState, why string) {
	requeued := c.endLeaseLocked(ls)
	c.stats.LeasesExpired++
	ev := flight.Event{
		Kind:   flight.KindLeaseExpire,
		Job:    ls.jobID,
		Lease:  ls.id,
		Node:   ls.nodeID,
		Reason: why,
		Detail: fmt.Sprintf("requeued=%d", requeued),
	}
	if j, ok := c.jobs[ls.jobID]; ok {
		ev.Trace = j.traceID
		ev.Tenant = j.tenant
	}
	c.opts.Flight.Record(ev)
}

// endLeaseLocked drops a lease record and returns its still-leased indices
// to the pending queue, waking held leases when there are any. It returns
// how many indices it requeued.
func (c *Coordinator) endLeaseLocked(ls *leaseState) int {
	requeued := 0
	if j, ok := c.jobs[ls.jobID]; ok {
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
	if requeued > 0 {
		c.wakeLocked()
	}
	return requeued
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
