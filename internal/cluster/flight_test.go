// Ops-plane tests for the cluster fabric: coordinator flight events across
// the lease lifecycle, heartbeat-piggybacked node event indexing, and the
// deterministic merged timeline two identical runs must reproduce
// byte-identically.
package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hetwire/internal/obs/flight"
)

func testFlightCoordinator(t *testing.T, clk *fakeClock, fr *flight.Recorder) *Coordinator {
	t.Helper()
	return New(Options{
		LeaseSize: 2,
		LeaseTTL:  10 * time.Second,
		Heartbeat: 2 * time.Second,
		DeadAfter: 30 * time.Second,
		Now:       clk.Now,
		Flight:    fr,
	})
}

// TestCoordinatorFlightLeaseLifecycle pins the coordinator-side event chain:
// grant, upload, and expiry all land in the recorder with the job's trace.
func TestCoordinatorFlightLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	fr := flight.New(64)
	c := testFlightCoordinator(t, clk, fr)
	n1 := register(t, c, "slow")
	n2 := register(t, c, "healthy")
	if _, _, err := c.Submit(testBatch(2), "tr-life", "acme"); err != nil {
		t.Fatalf("submit: %v", err)
	}
	l1 := mustLease(t, c, n1, 0)
	clk.Advance(5 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(6 * time.Second) // l1's TTL exceeded
	l2 := mustLease(t, c, n2, 0) // re-dispatch of [0,2)
	uploadRange(t, c, n2, l2)

	var kinds []string
	for _, ev := range fr.Snapshot() {
		if ev.Trace != "tr-life" {
			t.Errorf("event %+v lost the job trace", ev)
		}
		if ev.Tenant != "acme" {
			t.Errorf("event %+v lost the tenant", ev)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []string{flight.KindLeaseGrant, flight.KindLeaseExpire, flight.KindLeaseGrant, flight.KindLeaseUpload}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event chain = %v, want %v", kinds, want)
	}
	evs := fr.Snapshot()
	if evs[1].Lease != l1.ID || evs[1].Reason == "" {
		t.Errorf("expire event = %+v, want lease %s with a reason", evs[1], l1.ID)
	}
	if evs[3].Lease != l2.ID || !strings.Contains(evs[3].Detail, "accepted=2") {
		t.Errorf("upload event = %+v, want lease %s accepted=2", evs[3], l2.ID)
	}
}

// TestHeartbeatIndexesNodeEventsPerJob: events piggybacked on heartbeats are
// filed under the jobs they concern; events for unknown (or already-taken)
// jobs are dropped rather than accumulated unboundedly.
func TestHeartbeatIndexesNodeEventsPerJob(t *testing.T) {
	clk := newFakeClock()
	c := testFlightCoordinator(t, clk, nil)
	n1 := register(t, c, "a")
	jobID, done, err := c.Submit(testBatch(2), "tr-idx", "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	lease := mustLease(t, c, n1, 0)

	c.Heartbeat(&HeartbeatRequest{NodeID: n1, Events: []flight.Event{
		{Seq: 1, Kind: flight.KindLeaseRun, Trace: "tr-idx", Job: jobID, Lease: lease.ID, Node: n1},
		{Seq: 2, Kind: flight.KindSpan, Trace: "tr-idx", Job: "b-9999", Lease: "l-9999", Node: n1}, // unknown job
	}})
	got := c.NodeEvents(jobID)
	if len(got) != 1 || got[0].Kind != flight.KindLeaseRun || got[0].Node != n1 {
		t.Fatalf("indexed events = %+v, want just the lease_run", got)
	}
	if c.NodeEvents("b-9999") != nil {
		t.Error("events indexed for an unknown job")
	}

	uploadRange(t, c, n1, lease)
	<-done
	take(t, c, jobID)
	// Taken job: the record is gone, late events are dropped silently.
	c.Heartbeat(&HeartbeatRequest{NodeID: n1, Events: []flight.Event{
		{Seq: 3, Kind: flight.KindSpan, Job: jobID},
	}})
	if c.NodeEvents(jobID) != nil {
		t.Error("events survived (or were indexed after) job take")
	}
}

// runTwoNodeScript drives one fully scripted 2-node cluster run — fixed
// registration order, fixed lease acquisition order, node-side events
// fabricated exactly as the agent records them — and returns the merged
// canonical timeline. Two invocations must return identical bytes.
func runTwoNodeScript(t *testing.T) string {
	t.Helper()
	clk := newFakeClock()
	coordFR := flight.New(64)
	c := testFlightCoordinator(t, clk, coordFR)
	nodes := []string{register(t, c, "alpha"), register(t, c, "beta")}
	jobID, done, err := c.Submit(testBatch(4), "tr-merge", "acme")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	nodeFR := []*flight.Recorder{flight.New(64), flight.New(64)}
	for i, nodeID := range nodes {
		lease := mustLease(t, c, nodeID, 0)
		nodeFR[i].Record(flight.Event{
			Kind: flight.KindLeaseRun, Trace: lease.TraceID, Tenant: lease.Tenant,
			Job: lease.JobID, Lease: lease.ID, Node: nodeID,
		})
		uploadRange(t, c, nodeID, lease)
		nodeFR[i].Record(flight.Event{
			Kind: flight.KindSpan, Trace: lease.TraceID, Job: lease.JobID,
			Lease: lease.ID, Node: nodeID, DurMS: float64(i + 1), Detail: SpanSim,
		})
		nodeFR[i].Record(flight.Event{
			Kind: flight.KindLeaseDone, Trace: lease.TraceID, Tenant: lease.Tenant,
			Job: lease.JobID, Lease: lease.ID, Node: nodeID,
			Detail: fmt.Sprintf("simulated=%d skipped=0 failed=0", lease.End-lease.Start),
		})
	}
	<-done
	take(t, c, jobID)

	return flight.MergeTimeline([]flight.Source{
		{Name: "coordinator", Events: flight.Canonical(coordFR.Snapshot())},
		{Name: "alpha", Events: flight.Canonical(nodeFR[0].Snapshot())},
		{Name: "beta", Events: flight.Canonical(nodeFR[1].Snapshot())},
	}, false)
}

// TestMergedTimelineByteIdenticalAcrossRuns is the cluster-trace acceptance
// check: two identical 2-node runs merge to byte-identical causal timelines.
func TestMergedTimelineByteIdenticalAcrossRuns(t *testing.T) {
	a := runTwoNodeScript(t)
	b := runTwoNodeScript(t)
	if a != b {
		t.Fatalf("identical runs merged differently:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "trace tr-merge") {
		t.Fatalf("timeline lost the trace section:\n%s", a)
	}
	// Causal shape: each lease's rows form one block anchored to its grant —
	// grant, then the node's execution and outcome, then the upload — and
	// blocks appear in grant order.
	wantOrder := []string{
		"lease_grant tenant=acme job=cj-000001 lease=l-000001",
		"lease_run tenant=acme job=cj-000001 lease=l-000001",
		"lease_done tenant=acme job=cj-000001 lease=l-000001 node=n-0001 detail=simulated=2",
		"lease_upload tenant=acme job=cj-000001 lease=l-000001",
		"lease_grant tenant=acme job=cj-000001 lease=l-000002",
		"lease_run tenant=acme job=cj-000001 lease=l-000002",
		"lease_done tenant=acme job=cj-000001 lease=l-000002 node=n-0002 detail=simulated=2",
		"lease_upload tenant=acme job=cj-000001 lease=l-000002",
	}
	pos := -1
	for _, probe := range wantOrder {
		next := strings.Index(a, probe)
		if next <= pos {
			t.Fatalf("timeline row %q missing or out of causal order:\n%s", probe, a)
		}
		pos = next
	}
	if strings.Contains(a, "dur_ms") {
		t.Error("canonical timeline leaked a measured duration")
	}
}
