package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/wire"
)

// fakeClock drives the coordinator deterministically: tests advance it past
// lease TTLs and heartbeat windows instead of sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testCoordinator(t *testing.T, clk *fakeClock) *Coordinator {
	t.Helper()
	// DeadAfter is kept past the lease TTL so lease-expiry tests exercise the
	// deadline path, not node death; the node-death test builds its own.
	return New(Options{
		LeaseSize: 4,
		LeaseTTL:  10 * time.Second,
		Heartbeat: 2 * time.Second,
		DeadAfter: 30 * time.Second,
		Now:       clk.Now,
	})
}

func register(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	resp, err := c.Register(&RegisterRequest{
		Name:       name,
		Protocol:   ProtocolVersion,
		CompatHash: CompatHash(),
	})
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return resp.NodeID
}

// testRequest is the scenario testBatch expands to at index i: one
// benchmark and model, with n varied so every index is a distinct request.
func testRequest(i int) hetwire.RunRequest {
	return hetwire.RunRequest{Benchmark: "gzip", Model: "I", N: uint64(1000 * (i + 1))}
}

// testBatch is the expansion of a batch of the given size, as the daemon
// hands it to Submit.
func testBatch(scenarios int) []hetwire.RunRequest {
	reqs := make([]hetwire.RunRequest, scenarios)
	for i := range reqs {
		reqs[i] = testRequest(i)
	}
	return reqs
}

// resultFor fabricates a deterministic result for an index, answering the
// request testBatch puts there. The IPC varies by index so distinct
// scenarios carry distinct frames.
func resultFor(idx int) wire.Scenario {
	frame, err := wire.EncodeRunResult(&hetwire.RunResponse{IPC: 1.0 + float64(idx)})
	if err != nil {
		panic(err)
	}
	return wire.Scenario{Index: idx, Request: testRequest(idx), Result: frame}
}

// errorFor is a scenario error for an index, as a node reports one.
func errorFor(idx int, msg, reason string) wire.Scenario {
	return wire.Scenario{Index: idx, Request: testRequest(idx), Error: msg, Reason: reason}
}

// cacheKeys returns each scenario's cache key, as the daemon computes it
// at admission.
func cacheKeys(t *testing.T, reqs []hetwire.RunRequest) []string {
	t.Helper()
	keys := make([]string, len(reqs))
	for i := range reqs {
		var err error
		if keys[i], err = reqs[i].CacheKey(); err != nil {
			t.Fatalf("cache key %d: %v", i, err)
		}
	}
	return keys
}

// submit registers reqs as job id with every index pending, as the daemon
// submits a batch none of whose scenarios is cached.
func submit(t *testing.T, c *Coordinator, id string, reqs []hetwire.RunRequest, traceID, tenant string, publish Publish) <-chan struct{} {
	t.Helper()
	pending := make([]int, len(reqs))
	for i := range pending {
		pending[i] = i
	}
	return c.Submit(id, reqs, cacheKeys(t, reqs), pending, traceID, tenant, publish)
}

// upload sends scenario outcomes for a lease as nodeID.
func upload(c *Coordinator, nodeID string, lease *Lease, scenarios ...wire.Scenario) (*UploadResponse, error) {
	return c.Upload(&wire.UploadHeader{NodeID: nodeID, LeaseID: lease.ID, JobID: lease.JobID}, scenarios)
}

// sink collects what a job publishes: its frames and the result frames
// handed back for the daemon's cache, by index, and any index published
// twice. Uploads publish under the coordinator's lock, so the sink has its
// own.
type sink struct {
	mu      sync.Mutex
	frames  map[int][]byte
	results map[int][]byte
	repeats int
}

func newSink() *sink { return &sink{frames: make(map[int][]byte), results: make(map[int][]byte)} }

func (s *sink) publish(i int, frame, result []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.frames[i]; ok {
		s.repeats++
	}
	s.frames[i] = frame
	s.results[i] = result
}

// published returns how many indices have been published.
func (s *sink) published() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// take awaits a job through AwaitJob, which drops its record, and decodes
// the frames the job published into the BatchResponse view the tests assert
// on. An index never published stays a zero scenario with no response.
func take(t *testing.T, c *Coordinator, jobID string, done <-chan struct{}, s *sink, total int) *hetwire.BatchResponse {
	t.Helper()
	if _, err := c.AwaitJob(context.Background(), jobID, done); err != nil {
		t.Fatalf("await %s: %v", jobID, err)
	}
	c.mu.Lock()
	_, kept := c.jobs[jobID]
	c.mu.Unlock()
	if kept {
		t.Fatalf("AwaitJob kept the record of %s", jobID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repeats != 0 {
		t.Fatalf("job %s published %d indices more than once", jobID, s.repeats)
	}
	out := &hetwire.BatchResponse{Scenarios: make([]hetwire.BatchScenario, total)}
	for i, fr := range s.frames {
		sc, err := wire.DecodeScenario(fr)
		if err != nil {
			t.Fatalf("take %s: scenario %d: %v", jobID, i, err)
		}
		if sc.Index != i {
			t.Fatalf("take %s: frame published for %d carries index %d", jobID, i, sc.Index)
		}
		bs := &out.Scenarios[i]
		bs.Index, bs.Request, bs.Error, bs.Reason, bs.Cached = sc.Index, sc.Request, sc.Error, sc.Reason, sc.Cached
		if sc.Result == nil {
			out.Failed++
			continue
		}
		if bs.Response, err = wire.DecodeRunResult(sc.Result); err != nil {
			t.Fatalf("take %s: scenario %d result: %v", jobID, i, err)
		}
		out.Completed++
		if sc.Cached {
			out.CacheHits++
		}
	}
	return out
}

// uploadRange uploads fabricated results for [start, end).
func uploadRange(t *testing.T, c *Coordinator, nodeID string, lease *Lease) *UploadResponse {
	t.Helper()
	results := make([]wire.Scenario, 0, lease.End-lease.Start)
	for idx := lease.Start; idx < lease.End; idx++ {
		results = append(results, resultFor(idx))
	}
	resp, err := upload(c, nodeID, lease, results...)
	if err != nil {
		t.Fatalf("upload lease %s: %v", lease.ID, err)
	}
	return resp
}

// noWait is an already-cancelled context: a Lease given it grants what is
// pending and answers idle at once instead of holding the request.
var noWait = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

func mustLease(t *testing.T, c *Coordinator, nodeID string, max int) *Lease {
	t.Helper()
	resp, err := c.Lease(noWait, &LeaseRequest{NodeID: nodeID, Max: max})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if resp.Lease == nil {
		t.Fatal("expected a lease, got idle")
	}
	return resp.Lease
}

func TestRegisterRejectsIncompatibleNodes(t *testing.T) {
	c := testCoordinator(t, newFakeClock())
	_, err := c.Register(&RegisterRequest{Protocol: ProtocolVersion + 1, CompatHash: CompatHash()})
	if hetwire.ReasonCode(err) != ReasonIncompatibleNode {
		t.Fatalf("protocol mismatch: got reason %q err %v", hetwire.ReasonCode(err), err)
	}
	_, err = c.Register(&RegisterRequest{Protocol: ProtocolVersion, CompatHash: "v1/deadbeef"})
	if hetwire.ReasonCode(err) != ReasonIncompatibleNode {
		t.Fatalf("compat mismatch: got reason %q err %v", hetwire.ReasonCode(err), err)
	}
}

func TestUnknownNodeIsMachineReadable(t *testing.T) {
	c := testCoordinator(t, newFakeClock())
	if _, err := c.Lease(noWait, &LeaseRequest{NodeID: "n-9999"}); hetwire.ReasonCode(err) != ReasonUnknownNode {
		t.Fatalf("lease: got reason %q err %v", hetwire.ReasonCode(err), err)
	}
	if _, err := c.Upload(&wire.UploadHeader{NodeID: "n-9999"}, nil); hetwire.ReasonCode(err) != ReasonUnknownNode {
		t.Fatalf("upload: got reason %q err %v", hetwire.ReasonCode(err), err)
	}
	if hb := c.Heartbeat(&HeartbeatRequest{NodeID: "n-9999"}); hb.Known {
		t.Fatal("heartbeat from an unknown node must answer Known=false")
	}
}

func TestLeaseShardsInCanonicalOrder(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "a")
	submit(t, c, "j-000001", testBatch(10), "t1", "", nil)
	l1 := mustLease(t, c, n1, 0)
	if l1.Start != 0 || l1.End != 4 {
		t.Fatalf("first lease covers [%d,%d), want [0,4)", l1.Start, l1.End)
	}
	if len(l1.Scenarios) != 4 {
		t.Fatalf("lease carries %d scenarios, want 4", len(l1.Scenarios))
	}
	l2 := mustLease(t, c, n1, 0)
	if l2.Start != 4 || l2.End != 8 {
		t.Fatalf("second lease covers [%d,%d), want [4,8)", l2.Start, l2.End)
	}
	l3 := mustLease(t, c, n1, 0)
	if l3.Start != 8 || l3.End != 10 {
		t.Fatalf("third lease covers [%d,%d), want [8,10)", l3.Start, l3.End)
	}
	if resp, err := c.Lease(noWait, &LeaseRequest{NodeID: n1}); err != nil || resp.Lease != nil {
		t.Fatalf("exhausted job still leased: %+v err %v", resp.Lease, err)
	}
}

// heldLease starts a Lease for nodeID under a 10 s deadline that a passing
// run never reaches, and requires it to still be held after a short grace.
// The channel delivers its answer. Should the goroutine not have parked by
// the time the caller adds work, the Lease grants at once and the test still
// holds; an early idle answer is the failure being tested for.
func heldLease(t *testing.T, c *Coordinator, nodeID string) <-chan *LeaseResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	out := make(chan *LeaseResponse, 1)
	go func() {
		resp, err := c.Lease(ctx, &LeaseRequest{NodeID: nodeID})
		if err != nil {
			t.Errorf("held lease: %v", err)
		}
		out <- resp
	}()
	select {
	case resp := <-out:
		t.Fatalf("idle lease answered before any work arrived: %+v", resp)
	case <-time.After(20 * time.Millisecond):
	}
	return out
}

// awaitLease receives a held Lease's answer, which must carry a lease.
func awaitLease(t *testing.T, held <-chan *LeaseResponse) *Lease {
	t.Helper()
	resp := <-held
	if resp == nil || resp.Lease == nil {
		t.Fatal("held lease ended without work")
	}
	return resp.Lease
}

// TestHeldLeaseWakesOnSubmit: lease requests that find nothing pending are
// held, and a Submit during the hold answers every held request, each with
// its own shard of the new job.
func TestHeldLeaseWakesOnSubmit(t *testing.T) {
	c := testCoordinator(t, newFakeClock())
	n1 := register(t, c, "a")
	n2 := register(t, c, "b")
	held1, held2 := heldLease(t, c, n1), heldLease(t, c, n2)
	const jobID = "j-000001"
	submit(t, c, jobID, testBatch(8), "", "", nil)
	l1, l2 := awaitLease(t, held1), awaitLease(t, held2)
	if l1.Start > l2.Start {
		l1, l2 = l2, l1
	}
	if l1.JobID != jobID || l2.JobID != jobID || l1.Start != 0 || l1.End != 4 || l2.Start != 4 || l2.End != 8 {
		t.Fatalf("held leases got %s [%d,%d) and %s [%d,%d), want %s [0,4) and [4,8)",
			l1.JobID, l1.Start, l1.End, l2.JobID, l2.Start, l2.End, jobID)
	}
}

// TestHeldLeaseWakesOnExpiry: a Sweep that expires a lease past its TTL
// wakes another node's held request, which gets the expired range.
func TestHeldLeaseWakesOnExpiry(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "sick")
	n2 := register(t, c, "healthy")
	submit(t, c, "j-000001", testBatch(4), "", "", nil)
	l1 := mustLease(t, c, n1, 0)
	held := heldLease(t, c, n2)
	clk.Advance(11 * time.Second) // past the 10s TTL, inside n2's 30s DeadAfter
	c.Sweep()
	if l2 := awaitLease(t, held); l2.ID == l1.ID || l2.Start != l1.Start || l2.End != l1.End {
		t.Fatalf("held lease got %s [%d,%d), want a re-dispatch of %s [%d,%d)",
			l2.ID, l2.Start, l2.End, l1.ID, l1.Start, l1.End)
	}
}

// TestIdleLeaseHoldEndsEmpty: a hold whose context ends without work answers
// an empty lease and no error; an unknown node is rejected without a hold.
func TestIdleLeaseHoldEndsEmpty(t *testing.T) {
	c := testCoordinator(t, newFakeClock())
	n1 := register(t, c, "a")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	resp, err := c.Lease(ctx, &LeaseRequest{NodeID: n1})
	if err != nil || resp == nil || resp.Lease != nil {
		t.Fatalf("idle hold: %+v err %v, want an empty lease and no error", resp, err)
	}
	if ctx.Err() == nil {
		t.Fatal("idle lease answered before its context ended")
	}

	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Lease(ctx, &LeaseRequest{NodeID: "n-9999"}); hetwire.ReasonCode(err) != ReasonUnknownNode {
		t.Fatalf("unknown node: reason %q err %v", hetwire.ReasonCode(err), err)
	}
	if ctx.Err() != nil {
		t.Fatal("unknown node was held before its rejection")
	}
}

func TestLeaseExpiryRedispatchesToAnotherNode(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "sick")
	n2 := register(t, c, "healthy")
	pub := newSink()
	done := submit(t, c, "j-000001", testBatch(4), "t2", "", pub.publish)
	l1 := mustLease(t, c, n1, 0) // covers [0,4), then the node goes silent
	// Keep n2 alive while n1's lease runs out.
	clk.Advance(5 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(6 * time.Second) // lease TTL (10s) exceeded
	l2 := mustLease(t, c, n2, 0)
	if l2.Start != l1.Start || l2.End != l1.End {
		t.Fatalf("re-dispatched lease covers [%d,%d), want [%d,%d)", l2.Start, l2.End, l1.Start, l1.End)
	}
	st := c.Stats()
	if st.LeasesExpired == 0 || st.ScenariosRedispatched != 4 {
		t.Fatalf("expiry not accounted: %+v", st)
	}
	uploadRange(t, c, n2, l2)
	select {
	case <-done:
	default:
		t.Fatal("job not complete after re-dispatched upload")
	}

	// The straggler finally reports in: every result is a duplicate no-op.
	resp, err := upload(c, n1, l1, resultFor(0), resultFor(1), resultFor(2), resultFor(3))
	if err != nil {
		t.Fatalf("straggler upload: %v", err)
	}
	if resp.Duplicate != 4 || resp.Accepted != 0 {
		t.Fatalf("straggler upload: %+v, want 4 duplicates", resp)
	}
	if st := c.Stats(); st.UploadConflicts != 0 {
		t.Fatalf("identical duplicate counted as conflict: %+v", st)
	}

	// A duplicate whose frame bytes differ is a conflict; the first result
	// stays recorded.
	if _, err := upload(c, n1, l1, resultFor(1)); err != nil {
		t.Fatalf("conflicting upload: %v", err)
	}
	swapped := resultFor(0)
	swapped.Result = resultFor(1).Result
	if resp, err := upload(c, n1, l1, swapped); err != nil || resp.Duplicate != 1 {
		t.Fatalf("conflicting upload: %+v err %v", resp, err)
	}
	if st := c.Stats(); st.UploadConflicts != 1 {
		t.Fatalf("differing duplicate not counted as conflict: %+v", st)
	}
	if out := take(t, c, l1.JobID, done, pub, 4); out.Scenarios[0].Response.IPC != 1.0 {
		t.Fatalf("conflict replaced the first result: IPC %v", out.Scenarios[0].Response.IPC)
	}
}

func TestDeadNodeLeasesExpireImmediately(t *testing.T) {
	clk := newFakeClock()
	// DeadAfter (6s) < lease TTL (60s): node death must free the lease long
	// before its own deadline would.
	c := New(Options{
		LeaseSize: 4,
		LeaseTTL:  60 * time.Second,
		Heartbeat: 2 * time.Second,
		DeadAfter: 6 * time.Second,
		Now:       clk.Now,
	})
	n1 := register(t, c, "doomed")
	n2 := register(t, c, "survivor")
	submit(t, c, "j-000001", testBatch(4), "", "", nil)
	mustLease(t, c, n1, 0)
	// n2 keeps heartbeating; n1 goes silent past DeadAfter.
	clk.Advance(4 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(3 * time.Second)
	l2 := mustLease(t, c, n2, 0) // sweepLocked runs on entry, reaping n1
	if l2.Start != 0 || l2.End != 4 {
		t.Fatalf("lease after node death covers [%d,%d), want [0,4)", l2.Start, l2.End)
	}
	st := c.Stats()
	if st.NodesDead != 1 || st.NodesAlive != 1 {
		t.Fatalf("node death not accounted: %+v", st)
	}
	if hb := c.Heartbeat(&HeartbeatRequest{NodeID: n1}); hb.Known {
		t.Fatal("dead node must be told to re-register")
	}
}

// TestSubmitLeasesOnlyPending: Submit leases only the indices the daemon
// found uncached, publishes nothing for the others, and completes when the
// pending ones resolve. An accepted upload hands its result frame back for
// the daemon's cache.
func TestSubmitLeasesOnlyPending(t *testing.T) {
	c := testCoordinator(t, newFakeClock())
	n1 := register(t, c, "a")
	reqs := testBatch(3)
	pub := newSink()
	done := c.Submit("j-000001", reqs, cacheKeys(t, reqs), []int{0, 2}, "", "", pub.publish)
	for _, want := range []int{0, 2} {
		l := mustLease(t, c, n1, 0)
		if l.Start != want || l.End != want+1 {
			t.Fatalf("lease covers [%d,%d), want [%d,%d)", l.Start, l.End, want, want+1)
		}
		if resp := uploadRange(t, c, n1, l); resp.Accepted != 1 {
			t.Fatalf("upload of [%d,%d): %+v", l.Start, l.End, resp)
		}
	}
	if resp, err := c.Lease(noWait, &LeaseRequest{NodeID: n1}); err != nil || resp.Lease != nil {
		t.Fatalf("an index admission answered was leased: %+v err %v", resp.Lease, err)
	}
	select {
	case <-done:
	default:
		t.Fatal("job open after its pending indices resolved")
	}
	take(t, c, "j-000001", done, pub, 3)
	if _, ok := pub.frames[1]; ok || len(pub.frames) != 2 {
		t.Fatalf("published indices %v, want only 0 and 2", pub.frames)
	}
	if !bytes.Equal(pub.results[2], resultFor(2).Result) {
		t.Fatal("the accepted upload's result frame was not handed back")
	}
}

// TestUploadRejectsMalformedResults: a rejected upload changes nothing — its
// lease stays outstanding, and past the TTL every index it covers is leased
// again, including those of valid results that preceded the bad one. An
// accepted partial upload from the lease's owner ends the lease and frees
// the indices it left unresolved at once.
func TestUploadRejectsMalformedResults(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "a")
	n2 := register(t, c, "b")
	pub := newSink()
	done := submit(t, c, "j-000001", testBatch(4), "", "", pub.publish)
	lease := mustLease(t, c, n1, 0)

	outOfRange := resultFor(1)
	outOfRange.Index = 99
	corrupt := resultFor(1)
	corrupt.Result[len(corrupt.Result)-1] ^= 0xff
	for _, tc := range []struct {
		name    string
		results []wire.Scenario
	}{
		{"out-of-range index", []wire.Scenario{resultFor(0), outOfRange}},
		{"corrupt frame", []wire.Scenario{resultFor(0), corrupt}},
		{"empty result", []wire.Scenario{resultFor(0), {Index: 1, Request: testRequest(1)}}},
	} {
		if _, err := upload(c, n1, lease, tc.results...); hetwire.ReasonCode(err) != hetwire.ReasonBadRequest {
			t.Fatalf("%s: reason %q err %v", tc.name, hetwire.ReasonCode(err), err)
		}
		if st := c.Stats(); st.LeasesOutstanding != 1 || st.UploadsAccepted != 0 || pub.published() != 0 {
			t.Fatalf("%s: stats %+v and %d frames published, want the lease outstanding and nothing accepted",
				tc.name, st, pub.published())
		}
	}

	clk.Advance(11 * time.Second) // past the 10s TTL
	l2 := mustLease(t, c, n1, 0)
	if l2.Start != 0 || l2.End != 4 {
		t.Fatalf("re-dispatched lease covers [%d,%d), want [0,4)", l2.Start, l2.End)
	}

	held := heldLease(t, c, n2)
	if resp, err := upload(c, n1, l2, resultFor(0)); err != nil || resp.Accepted != 1 {
		t.Fatalf("partial upload: %+v err %v", resp, err)
	}
	l3 := awaitLease(t, held)
	if l3.Start != 1 || l3.End != 4 {
		t.Fatalf("held lease covers [%d,%d), want the unresolved [1,4)", l3.Start, l3.End)
	}
	if st := c.Stats(); st.LeasesOutstanding != 1 {
		t.Fatalf("stats %+v, want only the new lease outstanding", st)
	}
	uploadRange(t, c, n2, l3)
	select {
	case <-done:
	default:
		t.Fatal("job not complete after every index resolved")
	}
}

// TestUploadMustAnswerItsSlot: an upload's result is stored under its
// slot's cache key, so a scenario that carries another slot's request, or
// that claims to be a cache hit, is rejected whole with bad_request.
// Nothing changes: no slot resolves, nothing is published (so nothing
// reaches the daemon's cache) and the lease stays outstanding. A request
// that differs from the leased one only in its bytes (the lease JSON
// compacts a config document) answers the slot, and the published frame
// carries the daemon's request bytes.
func TestUploadMustAnswerItsSlot(t *testing.T) {
	c := testCoordinator(t, newFakeClock())
	n1 := register(t, c, "a")
	reqs := testBatch(2)
	reqs[1].Config = json.RawMessage(`{ "model": "I",  "clusters": 4 }`)
	pub := newSink()
	const jobID = "j-000001"
	done := submit(t, c, jobID, reqs, "", "", pub.publish)
	lease := mustLease(t, c, n1, 0)

	mismatched := resultFor(1)
	mismatched.Request = testRequest(0)
	mismatchedErr := errorFor(1, "boom", "internal")
	mismatchedErr.Request.N++
	cached := resultFor(1)
	cached.Request = reqs[1]
	cached.Cached = true
	for name, bad := range map[string]wire.Scenario{
		"another slot's request":       mismatched,
		"an error for another request": mismatchedErr,
		"cached flag":                  cached,
	} {
		if _, err := upload(c, n1, lease, resultFor(0), bad); hetwire.ReasonCode(err) != hetwire.ReasonBadRequest {
			t.Fatalf("%s: reason %q err %v, want bad_request", name, hetwire.ReasonCode(err), err)
		}
		c.mu.Lock()
		states := []int{c.jobs[jobID].slots[0].state, c.jobs[jobID].slots[1].state}
		c.mu.Unlock()
		if states[0] != slotLeased || states[1] != slotLeased {
			t.Fatalf("%s: slot states %v, want both still leased", name, states)
		}
		if st := c.Stats(); st.LeasesOutstanding != 1 || st.UploadsAccepted != 0 || pub.published() != 0 {
			t.Fatalf("%s: stats %+v and %d frames published, want the lease outstanding and nothing accepted",
				name, st, pub.published())
		}
	}

	// A node reads its lease from JSON, which compacts the document.
	var got Lease
	if raw, err := json.Marshal(lease); err != nil || json.Unmarshal(raw, &got) != nil {
		t.Fatalf("lease JSON round trip: %v", err)
	}
	compacted := resultFor(1)
	compacted.Request = got.Scenarios[1]
	if !bytes.Equal(compacted.Request.Config, []byte(`{"model":"I","clusters":4}`)) {
		t.Fatalf("node reads config %s, want the compacted document", compacted.Request.Config)
	}
	if resp, err := upload(c, n1, lease, resultFor(0), compacted); err != nil || resp.Accepted != 2 {
		t.Fatalf("upload with the leased requests: %+v err %v", resp, err)
	}
	out := take(t, c, jobID, done, pub, 2)
	if out.Completed != 2 || !bytes.Equal(out.Scenarios[1].Request.Config, reqs[1].Config) {
		t.Fatalf("completed=%d, published config %s, want 2 and the submitted %s",
			out.Completed, out.Scenarios[1].Request.Config, reqs[1].Config)
	}
}

func TestScenarioErrorsIsolateToTheirSlots(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "a")
	pub := newSink()
	done := submit(t, c, "j-000001", testBatch(2), "", "", pub.publish)
	lease := mustLease(t, c, n1, 0)
	r0 := resultFor(0)
	_, err := upload(c, n1, lease, r0, errorFor(1, "simulated node failure", "bad_config"))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	out := take(t, c, lease.JobID, done, pub, 2)
	if out.Completed != 1 || out.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", out.Completed, out.Failed)
	}
	if !bytes.Equal(pub.results[0], r0.Result) || pub.results[1] != nil {
		t.Fatal("publish must hand back the accepted result frame, and nothing for an error")
	}
	if out.Scenarios[1].Reason != "bad_config" || out.Scenarios[1].Error == "" {
		t.Fatalf("failed slot: %+v", out.Scenarios[1])
	}
}

func TestCancelResolvesOpenSlots(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "a")
	pub := newSink()
	const jobID = "j-000001"
	done := submit(t, c, jobID, testBatch(3), "", "", pub.publish)
	lease := mustLease(t, c, n1, 2)
	r0 := resultFor(0)
	if _, err := upload(c, n1, lease, r0); err != nil {
		t.Fatalf("upload: %v", err)
	}
	c.Cancel(jobID)
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed by cancel")
	}
	// The lease's late result for a cancelled slot is a duplicate: cancelled
	// slots are never published (the job's owner fills them).
	if resp, err := upload(c, n1, lease, resultFor(1)); err != nil || resp.Duplicate != 1 {
		t.Fatalf("upload after cancel: %+v err %v, want a duplicate", resp, err)
	}
	out := take(t, c, jobID, done, pub, 3)
	if out.Completed != 1 || out.Failed != 0 || pub.published() != 1 {
		t.Fatalf("after cancel: completed=%d failed=%d published=%d, want only index 0",
			out.Completed, out.Failed, pub.published())
	}
	if st := c.Stats(); st.JobsCancelled != 1 {
		t.Fatalf("cancel not accounted: %+v", st)
	}
}

func TestOldestJobLeasesFirst(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "a")
	const j1, j2 = "j-000001", "j-000002"
	submit(t, c, j1, testBatch(2), "", "", nil)
	submit(t, c, j2, testBatch(2), "", "", nil)
	l := mustLease(t, c, n1, 0)
	if l.JobID != j1 {
		t.Fatalf("first lease from job %s, want oldest %s", l.JobID, j1)
	}
}

func TestLeaseIDsAndNodeIDsAreSequential(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	for i := 1; i <= 3; i++ {
		id := register(t, c, "n")
		if want := fmt.Sprintf("n-%04d", i); id != want {
			t.Fatalf("node id %q, want %q", id, want)
		}
	}
}

// TestStragglerUploadWhilePendingRetiresQueueEntry covers the window between
// lease expiry and re-lease: a straggler body landing while its index sits in
// the pending queue must retire the queue entry, or the index would be
// re-leased over the recorded result and resolve the slot twice (premature
// completion, then a negative open count).
func TestStragglerUploadWhilePendingRetiresQueueEntry(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "slow")
	n2 := register(t, c, "healthy")
	pub := newSink()
	done := submit(t, c, "j-000001", testBatch(4), "", "", pub.publish)
	l1 := mustLease(t, c, n1, 0) // [0,4), then the lease runs out
	clk.Advance(5 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(6 * time.Second) // TTL (10s) exceeded; indices back in pending
	c.Sweep()

	// The straggler delivers index 0 while it is still queued (not re-leased).
	r0 := resultFor(0)
	resp, err := upload(c, n1, l1, r0)
	if err != nil {
		t.Fatalf("straggler upload: %v", err)
	}
	if resp.Accepted != 1 {
		t.Fatalf("straggler body not accepted: %+v", resp)
	}

	// The next lease must cover only the three unresolved indices.
	l2 := mustLease(t, c, n2, 0)
	if l2.Start != 1 || l2.End != 4 {
		t.Fatalf("re-dispatched lease covers [%d,%d), want [1,4)", l2.Start, l2.End)
	}
	if resp := uploadRange(t, c, n2, l2); resp.Accepted != 3 {
		t.Fatalf("healthy upload: %+v, want 3 accepted", resp)
	}
	select {
	case <-done:
	default:
		t.Fatal("job not complete after all four indices resolved")
	}
	out := take(t, c, l1.JobID, done, pub, 4)
	if out.Completed != 4 || out.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 4/0", out.Completed, out.Failed)
	}
	// No further work may exist for the collected job.
	if resp, err := c.Lease(noWait, &LeaseRequest{NodeID: n2}); err != nil || resp.Lease != nil {
		t.Fatalf("collected job still leasable: %+v err %v", resp.Lease, err)
	}
}

// TestStaleErrorDoesNotFailSlot: a scenario error is only trusted from the
// lease that still owns the slot. A straggler's transient failure arriving
// after expiry must not mark the slot failed — the healthy re-dispatch's
// result wins regardless of interleaving.
func TestStaleErrorDoesNotFailSlot(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk)
	n1 := register(t, c, "flaky")
	n2 := register(t, c, "healthy")
	pub := newSink()
	done := submit(t, c, "j-000001", testBatch(2), "", "", pub.publish)
	l1 := mustLease(t, c, n1, 0)
	clk.Advance(5 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(6 * time.Second)
	l2 := mustLease(t, c, n2, 0) // re-dispatch of [0,2)

	// The straggler reports a transient failure for the re-leased slots.
	resp, err := upload(c, n1, l1,
		errorFor(0, "context deadline exceeded", "internal"),
		errorFor(1, "context deadline exceeded", "internal"))
	if err != nil {
		t.Fatalf("stale error upload: %v", err)
	}
	if resp.Accepted != 0 || resp.Duplicate != 2 {
		t.Fatalf("stale errors not dropped: %+v", resp)
	}
	if st := c.Stats(); st.UploadsStale != 2 || pub.published() != 0 {
		t.Fatalf("stale uploads not accounted: %+v, %d frames published", st, pub.published())
	}

	// The healthy node's bodies land and the batch completes clean.
	uploadRange(t, c, n2, l2)
	select {
	case <-done:
	default:
		t.Fatal("job not complete after healthy upload")
	}
	out := take(t, c, l1.JobID, done, pub, 2)
	if out.Completed != 2 || out.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0 (stale error leaked)", out.Completed, out.Failed)
	}
}
