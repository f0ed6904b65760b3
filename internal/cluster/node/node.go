// Package node is the worker side of the distributed sweep fabric: an agent
// that registers with a hetwired coordinator, heartbeats, pulls work leases,
// simulates every leased scenario through the shared CPU-token batch engine,
// and uploads content-addressed results. The coordinator has already
// answered cached scenarios at submit, so a lease holds only work to do.
//
// The agent never sleeps while idle: the coordinator holds a lease request
// that finds no work and answers it when work arrives (or after its hold
// ends, empty), and the agent asks again right after every answer. Only a
// failed request is followed by a fixed retryWait pause.
//
// The agent lives in its own package (rather than in internal/cluster)
// because it builds on internal/client, which imports internal/server, which
// imports internal/cluster for the coordinator — keeping the protocol and
// coordinator dependency-light while the agent reuses the client's backoff,
// Retry-After, and circuit-breaker policies unchanged.
package node

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hetwire"
	"hetwire/internal/batch"
	"hetwire/internal/client"
	"hetwire/internal/cluster"
	"hetwire/internal/obs/flight"
	"hetwire/internal/wire"
)

// Options configures a node agent.
type Options struct {
	// Coordinator is the coordinator daemon's base URL,
	// e.g. "http://127.0.0.1:8677".
	Coordinator string
	// Token is the shared cluster secret, sent as a bearer token.
	Token string
	// Name is the human-readable node label (default "node").
	Name string
	// Parallelism bounds concurrent scenario simulations within a lease
	// (default: the CPU token-pool capacity).
	Parallelism int
	// MaxLease asks the coordinator for at most this many scenarios per lease
	// (0 = the coordinator's default).
	MaxLease int
	// Client optionally overrides the HTTP client; by default one is built
	// from Coordinator and Token with the standard retry policy.
	Client *client.Client
	// Flight, when non-nil, records the node's events: registration, lease
	// start, per-phase spans, lease outcome and failed requests. Its sink
	// (hetwired's -flight-log, stderr by default) is the node's only event
	// channel: hetwiretrace cluster merges it with the coordinator's dump.
	Flight *flight.Recorder
	// OnLease, when non-nil, observes each lease as it is received, before
	// any work happens. Tests use it to kill the node mid-lease.
	OnLease func(lease *cluster.Lease)
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "node"
	}
	if o.Client == nil {
		o.Client = client.New(client.Options{BaseURL: o.Coordinator, AuthToken: o.Token})
	}
	return o
}

// agent is the running node's state shared between the main loop and the
// heartbeat goroutine.
type agent struct {
	opts Options
	cl   *client.Client

	mu      sync.Mutex
	nodeID  string
	hbEvery time.Duration
	needReg bool // heartbeat saw Known=false: re-register before next lease
}

// retryWait is the pause after a failed lease request before the next one.
const retryWait = 200 * time.Millisecond

// Run operates one node against the coordinator until ctx ends. It returns
// ctx's error on shutdown, or a terminal error if the coordinator rejects
// the node as incompatible (retrying cannot help).
func Run(ctx context.Context, opts Options) error {
	a := &agent{opts: opts.withDefaults()}
	a.cl = a.opts.Client
	if err := a.register(ctx); err != nil {
		return err
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		a.heartbeatLoop(hbCtx)
	}()
	defer hbDone.Wait()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		a.mu.Lock()
		reReg := a.needReg
		a.mu.Unlock()
		if reReg {
			if err := a.register(ctx); err != nil {
				return err
			}
		}
		lease, err := a.lease(ctx)
		if err != nil {
			if terminal(ctx, err) {
				return err
			}
			a.opts.Flight.Record(flight.Event{Kind: flight.KindError, Node: a.id(), Reason: "lease_request", Detail: err.Error()})
			if err := sleepCtx(ctx, retryWait); err != nil {
				return err
			}
			continue
		}
		if lease == nil {
			continue // the coordinator's hold ended without work: ask again
		}
		if a.opts.OnLease != nil {
			a.opts.OnLease(lease)
		}
		if err := a.runLease(ctx, lease); err != nil {
			if terminal(ctx, err) {
				return err
			}
			a.opts.Flight.Record(flight.Event{Kind: flight.KindError, Trace: lease.TraceID, Tenant: lease.Tenant,
				Job: lease.JobID, Lease: lease.ID, Node: a.id(), Reason: "lease", Detail: err.Error()})
		}
	}
}

// register announces the node and records the assigned identity and cadence.
// The register POST carries an idempotency key so transport failures retry;
// the coordinator does not deduplicate registrations, but a duplicate only
// leaves a zombie node record that expires on missed heartbeats.
func (a *agent) register(ctx context.Context) error {
	req := cluster.RegisterRequest{
		Name:       a.opts.Name,
		Protocol:   cluster.ProtocolVersion,
		CompatHash: cluster.CompatHash(),
		Caps: cluster.NodeCaps{
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
		},
	}
	var resp cluster.RegisterResponse
	if err := a.cl.DoJSON(ctx, http.MethodPost, "/v1/cluster/register", &req, "register-"+a.opts.Name, &resp); err != nil {
		return fmt.Errorf("node: registering with coordinator: %w", err)
	}
	a.mu.Lock()
	a.nodeID = resp.NodeID
	a.hbEvery = time.Duration(resp.HeartbeatMS) * time.Millisecond
	a.needReg = false
	a.mu.Unlock()
	a.opts.Flight.Record(flight.Event{Kind: flight.KindNodeJoin, Node: resp.NodeID, Detail: a.opts.Name})
	return nil
}

func (a *agent) id() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nodeID
}

// heartbeatLoop keeps the node alive on the coordinator while the main loop
// may be deep inside a long simulation. Known=false flags the main loop to
// re-register (coordinator restarted, or we were declared dead).
func (a *agent) heartbeatLoop(ctx context.Context) {
	for {
		a.mu.Lock()
		every := a.hbEvery
		a.mu.Unlock()
		if every <= 0 {
			every = 5 * time.Second
		}
		if err := sleepCtx(ctx, every); err != nil {
			return
		}
		var resp cluster.HeartbeatResponse
		err := a.cl.DoJSON(ctx, http.MethodPost, "/v1/cluster/heartbeat",
			&cluster.HeartbeatRequest{NodeID: a.id()}, "hb", &resp)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			a.opts.Flight.Record(flight.Event{Kind: flight.KindError, Node: a.id(), Reason: "heartbeat", Detail: err.Error()})
			continue
		}
		if !resp.Known {
			a.mu.Lock()
			a.needReg = true
			a.mu.Unlock()
		}
	}
}

// lease asks for work; the coordinator holds the request while nothing is
// pending. A nil lease with a nil error means the hold ended idle.
func (a *agent) lease(ctx context.Context) (*cluster.Lease, error) {
	var resp cluster.LeaseResponse
	err := a.cl.DoJSON(ctx, http.MethodPost, "/v1/cluster/lease",
		&cluster.LeaseRequest{NodeID: a.id(), Max: a.opts.MaxLease}, "lease", &resp)
	if err != nil {
		if reason(err) == cluster.ReasonUnknownNode {
			a.mu.Lock()
			a.needReg = true
			a.mu.Unlock()
		}
		return nil, err
	}
	return resp.Lease, nil
}

// runLease executes one lease end to end: simulate, then upload. A context
// cancellation mid-lease aborts without uploading — the straggler case the
// coordinator's lease expiry exists for. The lease's outcome is recorded as
// one KindLeaseDone flight event.
func (a *agent) runLease(ctx context.Context, lease *cluster.Lease) error {
	count := lease.End - lease.Start
	if count != len(lease.Scenarios) {
		return fmt.Errorf("node: lease %s carries %d scenarios for range [%d,%d)",
			lease.ID, len(lease.Scenarios), lease.Start, lease.End)
	}
	record := func(kind, reason, detail string, durMS float64) {
		a.opts.Flight.Record(flight.Event{
			Kind:   kind,
			Trace:  lease.TraceID,
			Tenant: lease.Tenant,
			Job:    lease.JobID,
			Lease:  lease.ID,
			Node:   a.id(),
			Reason: reason,
			DurMS:  durMS,
			Detail: detail,
		})
	}
	record(flight.KindLeaseRun, "", fmt.Sprintf("range=[%d,%d)", lease.Start, lease.End), 0)

	// Phase 1: simulate every scenario through the shared batch engine, so
	// lease execution draws from the same process-wide CPU budget as local
	// surfaces. Scenario failures are isolated to their slots; only context
	// cancellation aborts the lease. Each outcome is the TypeScenario frame
	// a local batch would publish, carrying the leased request: the frame
	// CRC plus the coordinator's full validation guard transport, and the
	// coordinator stores the result frame bytes without re-encoding.
	scenarios := make([]wire.Scenario, count)
	for i := range scenarios {
		scenarios[i] = wire.Scenario{Index: lease.Start + i, Request: lease.Scenarios[i]}
	}
	simCtx := hetwire.WithTraceID(ctx, lease.TraceID)
	t0 := time.Now()
	errs := batch.RunRange(simCtx, lease.Start, lease.End, a.opts.Parallelism, func(ctx context.Context, idx int) error {
		sc := &scenarios[idx-lease.Start]
		resp, err := sc.Request.ExecuteContext(ctx)
		if err == nil {
			sc.Result, err = wire.EncodeRunResult(resp)
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			sc.Error = err.Error()
			sc.Reason = hetwire.ReasonCode(err)
		}
		return nil
	})
	hdr := &wire.UploadHeader{NodeID: a.id(), LeaseID: lease.ID, JobID: lease.JobID,
		Spans: []wire.SpanMS{{Name: cluster.SpanSim, DurMS: msSince(t0)}}}
	var simulated, failed int
	outcome := func() string {
		return fmt.Sprintf("simulated=%d failed=%d", simulated, failed)
	}
	if err := ctx.Err(); err != nil {
		record(flight.KindLeaseDone, "aborted", outcome(), 0)
		return err
	}
	for i := range scenarios {
		sc := &scenarios[i]
		switch {
		case sc.Error != "":
			failed++
		case len(sc.Result) > 0:
			simulated++
		case errs[i] != nil:
			// Engine-level failure (token acquisition, contained panic) with no
			// scenario-level record: report it so the slot resolves.
			sc.Error = errs[i].Error()
			sc.Reason = hetwire.ReasonCode(errs[i])
			failed++
		}
	}

	// Phase 2: upload. Keyed by lease ID so transport retries replay safely —
	// uploads are idempotent by content on the coordinator.
	t0 = time.Now()
	body, err := wire.EncodeUpload(hdr, scenarios)
	if err == nil {
		err = a.cl.DoBytes(ctx, http.MethodPost, "/v1/cluster/upload", wire.ContentType,
			body, "upload-"+lease.ID, nil)
	}
	if err != nil {
		if reason(err) == cluster.ReasonUnknownNode {
			a.mu.Lock()
			a.needReg = true
			a.mu.Unlock()
		}
		record(flight.KindLeaseDone, "aborted", outcome(), 0)
		return fmt.Errorf("node: uploading lease %s: %w", lease.ID, err)
	}
	// Span summaries ride the flight recorder: one event per phase, DurMS
	// being the measured — hence nondeterministic, hence Canonical-elided —
	// cost.
	for _, sp := range append(hdr.Spans, wire.SpanMS{Name: cluster.SpanUpload, DurMS: msSince(t0)}) {
		record(flight.KindSpan, "", sp.Name, sp.DurMS)
	}
	record(flight.KindLeaseDone, "", outcome(), 0)
	return nil
}

// terminal reports whether an error should stop the node loop entirely:
// shutdown, or a coordinator verdict that retrying cannot change.
func terminal(ctx context.Context, err error) bool {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	switch reason(err) {
	case cluster.ReasonIncompatibleNode, cluster.ReasonUnauthorized, cluster.ReasonClusterDisabled:
		return true
	}
	return false
}

// reason extracts the daemon's machine-readable rejection code, if any.
func reason(err error) string {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Reason
	}
	return ""
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
