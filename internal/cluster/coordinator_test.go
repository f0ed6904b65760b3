package cluster

import (
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

// memCache is a map-backed ResultCache for coordinator tests.
type memCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemCache() *memCache { return &memCache{m: make(map[string][]byte)} }

func (c *memCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	return b, ok
}

func (c *memCache) Put(key string, body []byte) {
	c.mu.Lock()
	c.m[key] = append([]byte(nil), body...)
	c.mu.Unlock()
}

func (c *memCache) Delete(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

func testCoordinator(t *testing.T, clk *fakeClock, cache ResultCache) *Coordinator {
	t.Helper()
	// DeadAfter is kept past the lease TTL so lease-expiry tests exercise the
	// deadline path, not node death; the node-death test builds its own.
	return New(Options{
		LeaseSize: 4,
		LeaseTTL:  10 * time.Second,
		Heartbeat: 2 * time.Second,
		DeadAfter: 30 * time.Second,
		Cache:     cache,
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

func testBatch(scenarios int) *hetwire.BatchRequest {
	// One scenario per benchmark x n pair; vary n to get distinct scenarios.
	ns := make([]uint64, scenarios)
	for i := range ns {
		ns[i] = uint64(1000 * (i + 1))
	}
	return &hetwire.BatchRequest{
		Sweep: &hetwire.BatchSweep{
			Benchmarks: []string{"gzip"},
			Models:     []string{"I"},
			Ns:         ns,
		},
	}
}

// resultFor fabricates a deterministic result frame for an index. The IPC
// varies by index so distinct scenarios carry distinct frames.
func resultFor(idx int) wire.UploadResult {
	frame, err := wire.EncodeRunResult(&hetwire.RunResponse{IPC: 1.0 + float64(idx)})
	if err != nil {
		panic(err)
	}
	return wire.UploadResult{Index: idx, Frame: frame}
}

// upload sends results for a lease as nodeID.
func upload(c *Coordinator, nodeID string, lease *Lease, results ...wire.UploadResult) (*UploadResponse, error) {
	return c.Upload(&wire.UploadHeader{NodeID: nodeID, LeaseID: lease.ID, JobID: lease.JobID}, results)
}

// take collects a finished job through TakeFrames and decodes the frames
// into the BatchResponse view the tests assert on.
func take(t *testing.T, c *Coordinator, jobID string) *hetwire.BatchResponse {
	t.Helper()
	frames, _, _, err := c.TakeFrames(jobID)
	if err != nil {
		t.Fatalf("take %s: %v", jobID, err)
	}
	out := &hetwire.BatchResponse{Scenarios: make([]hetwire.BatchScenario, len(frames))}
	for i, fr := range frames {
		sc, err := wire.DecodeScenario(fr)
		if err != nil {
			t.Fatalf("take %s: scenario %d: %v", jobID, i, err)
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
	results := make([]wire.UploadResult, 0, lease.End-lease.Start)
	for idx := lease.Start; idx < lease.End; idx++ {
		r := resultFor(idx)
		key, err := lease.Scenarios[idx-lease.Start].CacheKey()
		if err != nil {
			t.Fatalf("cache key: %v", err)
		}
		r.CacheKey = key
		results = append(results, r)
	}
	resp, err := upload(c, nodeID, lease, results...)
	if err != nil {
		t.Fatalf("upload lease %s: %v", lease.ID, err)
	}
	return resp
}

func mustLease(t *testing.T, c *Coordinator, nodeID string, max int) *Lease {
	t.Helper()
	resp, err := c.Lease(&LeaseRequest{NodeID: nodeID, Max: max})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if resp.Lease == nil {
		t.Fatalf("expected a lease, got idle (retry %dms)", resp.RetryMS)
	}
	return resp.Lease
}

func TestRegisterRejectsIncompatibleNodes(t *testing.T) {
	c := testCoordinator(t, newFakeClock(), nil)
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
	c := testCoordinator(t, newFakeClock(), nil)
	if _, err := c.Lease(&LeaseRequest{NodeID: "n-9999"}); hetwire.ReasonCode(err) != ReasonUnknownNode {
		t.Fatalf("lease: got reason %q err %v", hetwire.ReasonCode(err), err)
	}
	if _, err := c.Upload(&wire.UploadHeader{NodeID: "n-9999"}, nil); hetwire.ReasonCode(err) != ReasonUnknownNode {
		t.Fatalf("upload: got reason %q err %v", hetwire.ReasonCode(err), err)
	}
	if _, err := c.CacheCheck(&CacheCheckRequest{NodeID: "n-9999"}); hetwire.ReasonCode(err) != ReasonUnknownNode {
		t.Fatalf("cachecheck: got reason %q err %v", hetwire.ReasonCode(err), err)
	}
	if hb := c.Heartbeat(&HeartbeatRequest{NodeID: "n-9999"}); hb.Known {
		t.Fatal("heartbeat from an unknown node must answer Known=false")
	}
}

func TestLeaseShardsInCanonicalOrder(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "a")
	if _, done, err := c.Submit(testBatch(10), "t1", ""); err != nil || done == nil {
		t.Fatalf("submit: %v", err)
	}
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
	if resp, err := c.Lease(&LeaseRequest{NodeID: n1}); err != nil || resp.Lease != nil {
		t.Fatalf("exhausted job still leased: %+v err %v", resp.Lease, err)
	}
}

func TestLeaseExpiryRedispatchesToAnotherNode(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "sick")
	n2 := register(t, c, "healthy")
	_, done, err := c.Submit(testBatch(4), "t2", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
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
	swapped := resultFor(1)
	swapped.Index = 0
	if resp, err := upload(c, n1, l1, swapped); err != nil || resp.Duplicate != 1 {
		t.Fatalf("conflicting upload: %+v err %v", resp, err)
	}
	if st := c.Stats(); st.UploadConflicts != 1 {
		t.Fatalf("differing duplicate not counted as conflict: %+v", st)
	}
	if out := take(t, c, l1.JobID); out.Scenarios[0].Response.IPC != 1.0 {
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
	if _, _, err := c.Submit(testBatch(4), "", ""); err != nil {
		t.Fatalf("submit: %v", err)
	}
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

func TestFederatedCacheFillsSkippedSlots(t *testing.T) {
	clk := newFakeClock()
	cache := newMemCache()
	c := testCoordinator(t, clk, cache)
	n1 := register(t, c, "a")
	_, done, err := c.Submit(testBatch(2), "", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	lease := mustLease(t, c, n1, 0)
	keys := make([]string, 2)
	for i := range lease.Scenarios {
		keys[i], _ = lease.Scenarios[i].CacheKey()
	}

	// Nothing cached yet: the check reports all unknown.
	chk, err := c.CacheCheck(&CacheCheckRequest{NodeID: n1, Keys: keys})
	if err != nil {
		t.Fatalf("cachecheck: %v", err)
	}
	for i, k := range chk.Known {
		if k {
			t.Fatalf("key %d reported known on an empty cache", i)
		}
	}

	// Pre-load index 1's result, as if another sweep had computed it. The
	// federated store holds wire frames, so the preload must be one too.
	body1, err := wire.EncodeRunResult(&hetwire.RunResponse{IPC: 2})
	if err != nil {
		t.Fatalf("encoding preload frame: %v", err)
	}
	cache.Put(keys[1], body1)
	chk, _ = c.CacheCheck(&CacheCheckRequest{NodeID: n1, Keys: keys})
	if chk.Known[0] || !chk.Known[1] {
		t.Fatalf("cachecheck after preload: %v", chk.Known)
	}

	// The node simulates index 0 and skips index 1.
	r0 := resultFor(0)
	r0.CacheKey = keys[0]
	resp, err := upload(c, n1, lease, r0, wire.UploadResult{Index: 1, CacheKey: keys[1], Skipped: true})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if resp.Accepted != 2 || len(resp.Requeued) != 0 || !resp.JobDone {
		t.Fatalf("upload response: %+v", resp)
	}
	st := c.Stats()
	if st.FederatedHits != 1 {
		t.Fatalf("federated hits = %d, want 1", st.FederatedHits)
	}
	// Index 0's fresh result must have populated the federated store.
	if _, ok := cache.Get(keys[0]); !ok {
		t.Fatal("fresh upload did not populate the federated cache")
	}
	<-done
	out := take(t, c, lease.JobID)
	if out.Completed != 2 || out.CacheHits != 1 || !out.Scenarios[1].Cached {
		t.Fatalf("merged response: completed=%d hits=%d", out.Completed, out.CacheHits)
	}
}

func TestEvictedCacheEntryRequeuesSkippedIndex(t *testing.T) {
	clk := newFakeClock()
	cache := newMemCache()
	c := testCoordinator(t, clk, cache)
	n1 := register(t, c, "a")
	if _, _, err := c.Submit(testBatch(1), "", ""); err != nil {
		t.Fatalf("submit: %v", err)
	}
	lease := mustLease(t, c, n1, 0)
	key, _ := lease.Scenarios[0].CacheKey()
	cache.Put(key, []byte(`{"ipc":1}`))
	// The entry vanishes between the node's check and its skip-marker upload.
	cache.Delete(key)
	resp, err := upload(c, n1, lease, wire.UploadResult{Index: 0, CacheKey: key, Skipped: true})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if len(resp.Requeued) != 1 || resp.Requeued[0] != 0 {
		t.Fatalf("requeued = %v, want [0]", resp.Requeued)
	}
	// The index is pending again and the next lease re-covers it.
	l2 := mustLease(t, c, n1, 0)
	if l2.Start != 0 || l2.End != 1 {
		t.Fatalf("requeued lease covers [%d,%d), want [0,1)", l2.Start, l2.End)
	}
}

func TestUploadRejectsMalformedResults(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "a")
	if _, _, err := c.Submit(testBatch(2), "", ""); err != nil {
		t.Fatalf("submit: %v", err)
	}
	lease := mustLease(t, c, n1, 0)

	// Out-of-range index.
	out := resultFor(0)
	out.Index = 99
	_, err := upload(c, n1, lease, out)
	if hetwire.ReasonCode(err) != hetwire.ReasonBadRequest {
		t.Fatalf("out-of-range index: reason %q err %v", hetwire.ReasonCode(err), err)
	}

	// A frame whose payload fails its CRC.
	corrupt := resultFor(0)
	corrupt.Frame[len(corrupt.Frame)-1] ^= 0xff
	_, err = upload(c, n1, lease, corrupt)
	if hetwire.ReasonCode(err) != hetwire.ReasonBadRequest {
		t.Fatalf("corrupt frame: reason %q err %v", hetwire.ReasonCode(err), err)
	}

	// A result with neither frame, error, nor skip marker.
	_, err = upload(c, n1, lease, wire.UploadResult{Index: 0})
	if hetwire.ReasonCode(err) != hetwire.ReasonBadRequest {
		t.Fatalf("empty result: reason %q err %v", hetwire.ReasonCode(err), err)
	}
}

func TestScenarioErrorsIsolateToTheirSlots(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "a")
	_, done, err := c.Submit(testBatch(2), "", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	lease := mustLease(t, c, n1, 0)
	r0 := resultFor(0)
	_, err = upload(c, n1, lease, r0, wire.UploadResult{Index: 1, Error: "simulated node failure", Reason: "bad_config"})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	<-done
	out := take(t, c, lease.JobID)
	if out.Completed != 1 || out.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", out.Completed, out.Failed)
	}
	if out.Scenarios[1].Reason != "bad_config" || out.Scenarios[1].Error == "" {
		t.Fatalf("failed slot: %+v", out.Scenarios[1])
	}
}

func TestCancelResolvesOpenSlots(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "a")
	jobID, done, err := c.Submit(testBatch(3), "", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
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
	out := take(t, c, jobID)
	if out.Completed != 1 || out.Failed != 2 {
		t.Fatalf("after cancel: completed=%d failed=%d, want 1/2", out.Completed, out.Failed)
	}
	for _, i := range []int{1, 2} {
		if out.Scenarios[i].Reason != "cancelled" {
			t.Fatalf("slot %d reason %q, want cancelled", i, out.Scenarios[i].Reason)
		}
	}
	if st := c.Stats(); st.JobsCancelled != 1 {
		t.Fatalf("cancel not accounted: %+v", st)
	}
}

func TestOldestJobLeasesFirst(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "a")
	j1, _, err := c.Submit(testBatch(2), "", "")
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, _, err := c.Submit(testBatch(2), "", "")
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if j1 == j2 {
		t.Fatalf("duplicate job IDs: %s", j1)
	}
	l := mustLease(t, c, n1, 0)
	if l.JobID != j1 {
		t.Fatalf("first lease from job %s, want oldest %s", l.JobID, j1)
	}
}

func TestLeaseIDsAndNodeIDsAreSequential(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
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
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "slow")
	n2 := register(t, c, "healthy")
	_, done, err := c.Submit(testBatch(4), "", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
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
	out := take(t, c, l1.JobID)
	if out.Completed != 4 || out.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 4/0", out.Completed, out.Failed)
	}
	// No further work may exist for the collected job.
	if resp, err := c.Lease(&LeaseRequest{NodeID: n2}); err != nil || resp.Lease != nil {
		t.Fatalf("collected job still leasable: %+v err %v", resp.Lease, err)
	}
}

// TestStaleErrorDoesNotFailSlot: a scenario error is only trusted from the
// lease that still owns the slot. A straggler's transient failure arriving
// after expiry must not mark the slot failed — the healthy re-dispatch's
// result wins regardless of interleaving.
func TestStaleErrorDoesNotFailSlot(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(t, clk, nil)
	n1 := register(t, c, "flaky")
	n2 := register(t, c, "healthy")
	_, done, err := c.Submit(testBatch(2), "", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l1 := mustLease(t, c, n1, 0)
	clk.Advance(5 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(6 * time.Second)
	l2 := mustLease(t, c, n2, 0) // re-dispatch of [0,2)

	// The straggler reports a transient failure for the re-leased slots.
	resp, err := upload(c, n1, l1,
		wire.UploadResult{Index: 0, Error: "context deadline exceeded", Reason: "internal"},
		wire.UploadResult{Index: 1, Error: "context deadline exceeded", Reason: "internal"})
	if err != nil {
		t.Fatalf("stale error upload: %v", err)
	}
	if resp.Accepted != 0 || resp.Duplicate != 2 {
		t.Fatalf("stale errors not dropped: %+v", resp)
	}
	if st := c.Stats(); st.UploadsStale != 2 {
		t.Fatalf("stale uploads not accounted: %+v", st)
	}

	// The healthy node's bodies land and the batch completes clean.
	uploadRange(t, c, n2, l2)
	select {
	case <-done:
	default:
		t.Fatal("job not complete after healthy upload")
	}
	out := take(t, c, l1.JobID)
	if out.Completed != 2 || out.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0 (stale error leaked)", out.Completed, out.Failed)
	}
}

// TestStaleSkipMarkerDoesNotDuplicatePendingIndex: a skip marker from an
// expired lease whose cache entry vanished must not re-queue an index that is
// already pending — the queue is a set, and a duplicate entry would hand the
// same scenario to two leases.
func TestStaleSkipMarkerDoesNotDuplicatePendingIndex(t *testing.T) {
	clk := newFakeClock()
	cache := newMemCache()
	c := testCoordinator(t, clk, cache)
	n1 := register(t, c, "slow")
	n2 := register(t, c, "healthy")
	_, done, err := c.Submit(testBatch(2), "", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	l1 := mustLease(t, c, n1, 0)
	clk.Advance(5 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(6 * time.Second)
	c.Sweep() // [0,2) back in pending

	// Straggler skip markers with no cache entries behind them: dropped, not
	// re-queued (the indices are already pending).
	keys := make([]string, 2)
	for i := range keys {
		keys[i], _ = l1.Scenarios[i].CacheKey()
	}
	resp, err := upload(c, n1, l1,
		wire.UploadResult{Index: 0, CacheKey: keys[0], Skipped: true},
		wire.UploadResult{Index: 1, CacheKey: keys[1], Skipped: true})
	if err != nil {
		t.Fatalf("stale skip upload: %v", err)
	}
	if len(resp.Requeued) != 0 || resp.Duplicate != 2 {
		t.Fatalf("stale skip markers: %+v, want 2 dropped and none requeued", resp)
	}

	// Exactly one lease covers the two indices; a second lease finds nothing.
	l2 := mustLease(t, c, n2, 0)
	if l2.Start != 0 || l2.End != 2 {
		t.Fatalf("re-dispatched lease covers [%d,%d), want [0,2)", l2.Start, l2.End)
	}
	if resp, err := c.Lease(&LeaseRequest{NodeID: n2}); err != nil || resp.Lease != nil {
		t.Fatalf("duplicate pending entry produced a second lease: %+v err %v", resp.Lease, err)
	}
	uploadRange(t, c, n2, l2)
	select {
	case <-done:
	default:
		t.Fatal("job not complete")
	}
}

// TestCacheCheckKeyCapIsEnforced: an oversized cache check is a protocol
// violation with a machine-readable reason, not a cheap way to hammer the
// coordinator's result cache.
func TestCacheCheckKeyCapIsEnforced(t *testing.T) {
	c := testCoordinator(t, newFakeClock(), newMemCache())
	n1 := register(t, c, "a")
	keys := make([]string, MaxCacheCheckKeys+1)
	_, err := c.CacheCheck(&CacheCheckRequest{NodeID: n1, Keys: keys})
	if hetwire.ReasonCode(err) != hetwire.ReasonBadRequest {
		t.Fatalf("oversized cache check: reason %q err %v", hetwire.ReasonCode(err), err)
	}
	if _, err := c.CacheCheck(&CacheCheckRequest{NodeID: n1, Keys: keys[:MaxCacheCheckKeys]}); err != nil {
		t.Fatalf("at-cap cache check rejected: %v", err)
	}
}
