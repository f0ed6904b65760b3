package server

import (
	"expvar"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetwire"
	"hetwire/internal/obs/flight"
	"hetwire/internal/tenant"
)

// jobLane classifies a job for the scheduler's two priority lanes.
// Interactive work is the single-scenario "run" kind — the latency-critical
// class; sweeps and batches are bulk. The split mirrors the source paper's
// wire classes: latency-critical traffic rides the fast lane, bandwidth
// traffic the fat one, and neither starves the other.
type jobLane int

const (
	laneInteractive jobLane = iota
	laneBulk
	numLanes
)

func laneOf(kind string) jobLane {
	if kind == "run" {
		return laneInteractive
	}
	return laneBulk
}

func (l jobLane) String() string {
	if l == laneInteractive {
		return "interactive"
	}
	return "bulk"
}

// tenantQueue is one tenant's scheduler state: a FIFO per lane plus the
// virtual time that orders tenants. State persists while the tenant is idle
// (the tenant set is bounded by the registry), so accumulated usage is not
// forgotten between bursts; the vfloor rule below caps how much an idle
// tenant can owe.
type tenantQueue struct {
	tn     *tenant.Tenant
	weight float64
	lanes  [numLanes][]*Job
	queued int
	// vtime is the tenant's accumulated sim-CPU seconds divided by its
	// weight. The scheduler always dispatches the backlogged tenant with the
	// minimum vtime, which is what yields weight-proportional CPU shares
	// under saturation (start-time fair queueing over job CPU charges).
	vtime float64
	// lastSeq is the global dispatch sequence number of this tenant's most
	// recent pop; it tie-breaks equal vtimes into round-robin order so
	// tenants with no measured usage yet (cold start, all-cache-hit phases)
	// still interleave instead of starving behind map order.
	lastSeq uint64
}

// fairQueue replaces the FIFO job queue with weighted-fair, two-lane
// dispatch. Push is admission (per-tenant queue-share caps enforced here);
// pop is the scheduling decision; charge folds a finished job's measured
// sim-CPU back into its tenant's virtual time.
//
// Lane policy: a worker asking for work takes the best tenant's interactive
// job if any exists anywhere; bulk jobs dispatch only while fewer than
// bulkCap of them are running, so at least one worker slot is always free
// for the interactive lane and a bulk storm cannot occupy the whole pool.
//
// Determinism: the scheduler reorders only which job STARTS next. Job
// results are content-addressed and scenario results land at their expansion
// index, so result bytes are schedule-independent (DESIGN §11).
type fairQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	maxDepth int
	bulkCap  int
	// fifo disables fair scheduling: one global FIFO, no lanes, no caps.
	// This is the benchreport's scheduler-off baseline, kept only to measure
	// the fair path's overhead against.
	fifo bool

	// flight receives a KindDispatch event per scheduling decision; nil-safe
	// (a nil *Recorder records nothing at the cost of one pointer compare).
	flight *flight.Recorder

	depth       int
	bulkRunning int
	seq         uint64
	// vfloor is the vtime of the most recently dispatched tenant (monotone).
	// A tenant going from idle to backlogged is lifted to it, so sitting idle
	// never banks unbounded credit against active tenants.
	vfloor  float64
	tenants map[string]*tenantQueue
	fifoQ   []*Job
	closed  bool
}

func newFairQueue(maxDepth, workers int, fifo bool, fr *flight.Recorder) *fairQueue {
	bulkCap := workers - 1
	if bulkCap < 1 {
		bulkCap = 1
	}
	q := &fairQueue{
		maxDepth: maxDepth,
		bulkCap:  bulkCap,
		fifo:     fifo,
		flight:   fr,
		tenants:  make(map[string]*tenantQueue),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// errTenantQueueShare is push's typed rejection for a tenant at its
// queue-share cap; the server maps it to 429 + tenant_queue_share.
var errTenantQueueShare = &hetwire.RequestError{
	Code: hetwire.ReasonTenantQueueShare,
	Err:  ErrQueueFull,
}

// push admits a job without blocking: ErrDraining after close, ErrQueueFull
// at global capacity, errTenantQueueShare when the job's tenant already
// holds its configured share of the queue.
func (q *fairQueue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if q.depth >= q.maxDepth {
		return ErrQueueFull
	}
	if q.fifo {
		q.fifoQ = append(q.fifoQ, j)
	} else {
		tq := q.tenantLocked(j.tenant)
		if share := j.tenant.QueueShareCap(q.maxDepth); share > 0 && tq.queued >= share {
			return errTenantQueueShare
		}
		if tq.queued == 0 && tq.vtime < q.vfloor {
			tq.vtime = q.vfloor
		}
		tq.lanes[j.lane] = append(tq.lanes[j.lane], j)
		tq.queued++
	}
	q.depth++
	j.tenant.IncQueued()
	q.cond.Signal()
	return nil
}

func (q *fairQueue) tenantLocked(tn *tenant.Tenant) *tenantQueue {
	tq, ok := q.tenants[tn.Name()]
	if !ok {
		tq = &tenantQueue{tn: tn, weight: float64(tn.Weight())}
		q.tenants[tn.Name()] = tq
	}
	return tq
}

// pop blocks until a job is dispatchable, returning (nil, false) once the
// queue is closed and fully drained. The caller MUST call finished(job)
// after running the job (bulk-slot bookkeeping).
func (q *fairQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.pickLocked(); j != nil {
			return j, true
		}
		if q.closed && q.depth == 0 {
			return nil, false
		}
		// Bulk work may remain undispatchable until a running bulk job calls
		// finished(), which broadcasts; close() broadcasts too.
		q.cond.Wait()
	}
}

// pickLocked chooses the next job or nil when nothing is dispatchable:
// the min-vtime tenant's interactive job first, else (under the bulk cap)
// the min-vtime tenant's bulk job.
func (q *fairQueue) pickLocked() *Job {
	if q.fifo {
		if len(q.fifoQ) == 0 {
			return nil
		}
		j := q.fifoQ[0]
		q.fifoQ[0] = nil
		q.fifoQ = q.fifoQ[1:]
		q.depth--
		j.tenant.DecQueued()
		return j
	}
	if tq := q.bestLocked(laneInteractive); tq != nil {
		return q.takeLocked(tq, laneInteractive)
	}
	if q.bulkRunning < q.bulkCap {
		if tq := q.bestLocked(laneBulk); tq != nil {
			j := q.takeLocked(tq, laneBulk)
			j.dispatchedBulk = true
			q.bulkRunning++
			return j
		}
	}
	return nil
}

// bestLocked returns the backlogged tenant with the minimum (vtime, lastSeq,
// name) for the lane, or nil. Linear scan: the tenant set is bounded by
// tenant.MaxTenants and typically tiny.
func (q *fairQueue) bestLocked(lane jobLane) *tenantQueue {
	var best *tenantQueue
	var bestName string
	for name, tq := range q.tenants {
		if len(tq.lanes[lane]) == 0 {
			continue
		}
		if best == nil ||
			tq.vtime < best.vtime ||
			(tq.vtime == best.vtime && (tq.lastSeq < best.lastSeq ||
				(tq.lastSeq == best.lastSeq && name < bestName))) {
			best, bestName = tq, name
		}
	}
	return best
}

func (q *fairQueue) takeLocked(tq *tenantQueue, lane jobLane) *Job {
	j := tq.lanes[lane][0]
	tq.lanes[lane][0] = nil
	tq.lanes[lane] = tq.lanes[lane][1:]
	tq.queued--
	q.depth--
	q.seq++
	tq.lastSeq = q.seq
	if tq.vtime > q.vfloor {
		q.vfloor = tq.vtime
	}
	j.tenant.DecQueued()
	q.flight.Record(flight.Event{
		Kind:   flight.KindDispatch,
		Trace:  j.TraceID,
		Tenant: tq.tn.Name(),
		Job:    j.ID,
		Lane:   lane.String(),
		VTime:  tq.vtime,
	})
	return j
}

// remove withdraws a job that was cancelled while queued, giving back its
// queue slot, its tenant's queue share and its Queued ledger entry at once
// instead of when a worker would have popped it. A job no longer in the
// queue (a worker popped it first) is left alone; the worker's claim fails.
func (q *fairQueue) remove(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	drop := func(s []*Job) ([]*Job, bool) {
		i := slices.Index(s, j)
		if i < 0 {
			return s, false
		}
		return slices.Delete(s, i, i+1), true
	}
	var ok bool
	if q.fifo {
		q.fifoQ, ok = drop(q.fifoQ)
	} else if tq, found := q.tenants[j.tenant.Name()]; found {
		if tq.lanes[j.lane], ok = drop(tq.lanes[j.lane]); ok {
			tq.queued--
		}
	}
	if !ok {
		return
	}
	q.depth--
	j.tenant.DecQueued()
	// A draining queue may just have become empty: wake workers to exit.
	q.cond.Broadcast()
}

// finished releases a dispatched job's bulk slot (no-op for interactive
// jobs) and wakes a waiting worker. Must be called exactly once per pop.
func (q *fairQueue) finished(j *Job) {
	q.mu.Lock()
	if j.dispatchedBulk {
		j.dispatchedBulk = false
		q.bulkRunning--
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// charge folds a finished job's measured simulation CPU into its tenant's
// virtual time: vtime += cpuSeconds / weight. Charging on completion (not
// dispatch) means the schedule reacts to real usage — a tenant of cheap
// cache-hit jobs is not billed like one running fresh 16k-instruction
// simulations.
func (q *fairQueue) charge(j *Job, cpu time.Duration) {
	if cpu <= 0 || q.fifo {
		return
	}
	q.mu.Lock()
	q.tenantLocked(j.tenant).vtime += cpu.Seconds() / float64(j.tenant.Weight())
	q.mu.Unlock()
}

// close stops intake; queued jobs remain for workers to drain.
func (q *fairQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *fairQueue) depthNow() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// SchedTenantSnapshot is one tenant's scheduler state as exposed over
// expvar: the start-time-fair-queueing internals that were previously
// observable only by reading sched.go.
type SchedTenantSnapshot struct {
	Tenant      string  `json:"tenant"`
	Weight      float64 `json:"weight"`
	VTime       float64 `json:"vtime"`
	Queued      int     `json:"queued"`
	Interactive int     `json:"interactive"`
	Bulk        int     `json:"bulk"`
	LastSeq     uint64  `json:"last_seq"`
}

// SchedSnapshot is a point-in-time view of the fair queue for expvar and
// the hetwired_sched_lane_depth metrics.
type SchedSnapshot struct {
	FIFO        bool                  `json:"fifo"`
	Depth       int                   `json:"depth"`
	BulkRunning int                   `json:"bulk_running"`
	BulkCap     int                   `json:"bulk_cap"`
	VFloor      float64               `json:"vfloor"`
	Seq         uint64                `json:"seq"`
	LaneDepth   map[string]int        `json:"lane_depth"`
	Tenants     []SchedTenantSnapshot `json:"tenants,omitempty"`
}

// snapshot captures the queue state under the lock; tenants are sorted by
// name so the output is deterministic.
func (q *fairQueue) snapshot() SchedSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := SchedSnapshot{
		FIFO:        q.fifo,
		Depth:       q.depth,
		BulkRunning: q.bulkRunning,
		BulkCap:     q.bulkCap,
		VFloor:      q.vfloor,
		Seq:         q.seq,
		LaneDepth:   map[string]int{laneInteractive.String(): 0, laneBulk.String(): 0},
	}
	if q.fifo {
		s.LaneDepth[laneBulk.String()] = len(q.fifoQ)
		return s
	}
	for name, tq := range q.tenants {
		s.LaneDepth[laneInteractive.String()] += len(tq.lanes[laneInteractive])
		s.LaneDepth[laneBulk.String()] += len(tq.lanes[laneBulk])
		s.Tenants = append(s.Tenants, SchedTenantSnapshot{
			Tenant:      name,
			Weight:      tq.weight,
			VTime:       tq.vtime,
			Queued:      tq.queued,
			Interactive: len(tq.lanes[laneInteractive]),
			Bulk:        len(tq.lanes[laneBulk]),
			LastSeq:     tq.lastSeq,
		})
	}
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Tenant < s.Tenants[j].Tenant })
	return s
}

// expvar.Publish panics on duplicate names and server.New runs many times
// per test binary, so the "hetwired_sched" var is published once and
// repointed at the newest queue via an atomic pointer.
var (
	schedExpvarOnce  sync.Once
	schedExpvarQueue atomic.Pointer[fairQueue]
)

func publishSchedExpvar(q *fairQueue) {
	schedExpvarQueue.Store(q)
	schedExpvarOnce.Do(func() {
		expvar.Publish("hetwired_sched", expvar.Func(func() any {
			if cur := schedExpvarQueue.Load(); cur != nil {
				return cur.snapshot()
			}
			return nil
		}))
	})
}
