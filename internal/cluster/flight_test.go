// Ops-plane tests for the cluster fabric: coordinator flight events across
// the lease lifecycle, and the deterministic merged timeline two identical
// runs must reproduce byte-identically.
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
// the two node joins, then grant, upload, and expiry, which all land in the
// recorder with the job's trace.
func TestCoordinatorFlightLeaseLifecycle(t *testing.T) {
	clk := newFakeClock()
	fr := flight.New(64)
	c := testFlightCoordinator(t, clk, fr)
	n1 := register(t, c, "slow")
	n2 := register(t, c, "healthy")
	submit(t, c, "j-000001", testBatch(2), "tr-life", "acme", nil)
	l1 := mustLease(t, c, n1, 0)
	clk.Advance(5 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: n2})
	clk.Advance(6 * time.Second) // l1's TTL exceeded
	l2 := mustLease(t, c, n2, 0) // re-dispatch of [0,2)
	uploadRange(t, c, n2, l2)

	var kinds []string
	for _, ev := range fr.Snapshot() {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == flight.KindNodeJoin {
			continue // membership is not job work: no trace or tenant
		}
		if ev.Trace != "tr-life" {
			t.Errorf("event %+v lost the job trace", ev)
		}
		if ev.Tenant != "acme" {
			t.Errorf("event %+v lost the tenant", ev)
		}
	}
	want := []string{flight.KindNodeJoin, flight.KindNodeJoin,
		flight.KindLeaseGrant, flight.KindLeaseExpire, flight.KindLeaseGrant, flight.KindLeaseUpload}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event chain = %v, want %v", kinds, want)
	}
	evs := fr.Snapshot()
	if evs[3].Lease != l1.ID || evs[3].Reason == "" {
		t.Errorf("expire event = %+v, want lease %s with a reason", evs[3], l1.ID)
	}
	if evs[5].Lease != l2.ID || !strings.Contains(evs[5].Detail, "accepted=2") {
		t.Errorf("upload event = %+v, want lease %s accepted=2", evs[5], l2.ID)
	}
}

// TestCoordinatorFlightNodeMembership: registration records node_join with
// the assigned ID and name, and a node silent past DeadAfter is recorded as
// node_dead ahead of the expiry of the lease it held. A straggler upload
// whose bytes disagree with the kept result reports the conflict in its
// lease_upload detail.
func TestCoordinatorFlightNodeMembership(t *testing.T) {
	clk := newFakeClock()
	fr := flight.New(64)
	c := New(Options{
		LeaseSize: 4,
		LeaseTTL:  60 * time.Second,
		Heartbeat: 2 * time.Second,
		DeadAfter: 6 * time.Second,
		Now:       clk.Now,
		Flight:    fr,
	})
	doomed := register(t, c, "doomed")
	survivor := register(t, c, "survivor")
	submit(t, c, "j-000001", testBatch(4), "tr-dead", "acme", nil)
	l1 := mustLease(t, c, doomed, 0)
	clk.Advance(4 * time.Second)
	c.Heartbeat(&HeartbeatRequest{NodeID: survivor})
	clk.Advance(3 * time.Second) // doomed is silent past DeadAfter
	c.Sweep()
	l2 := mustLease(t, c, survivor, 0)
	uploadRange(t, c, survivor, l2)
	swapped := resultFor(0)
	swapped.Result = resultFor(1).Result // a duplicate for index 0 whose bytes differ
	if _, err := upload(c, survivor, l1, swapped); err != nil {
		t.Fatalf("conflicting upload: %v", err)
	}

	var got []string
	for _, ev := range fr.Snapshot() {
		got = append(got, fmt.Sprintf("%s node=%s reason=%s detail=%s", ev.Kind, ev.Node, ev.Reason, ev.Detail))
	}
	want := []string{
		"node_join node=" + doomed + " reason= detail=doomed",
		"node_join node=" + survivor + " reason= detail=survivor",
		"lease_grant node=" + doomed + " reason= detail=range=[0,4)",
		"node_dead node=" + doomed + " reason= detail=doomed",
		"lease_expire node=" + doomed + " reason=node dead detail=requeued=4",
		"lease_grant node=" + survivor + " reason= detail=range=[0,4)",
		"lease_upload node=" + survivor + " reason= detail=accepted=4 duplicate=0 requeued=0",
		"lease_upload node=" + survivor + " reason= detail=accepted=0 duplicate=1 requeued=0 conflict=1",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("coordinator events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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
	pub := newSink()
	const jobID = "j-000001"
	done := submit(t, c, jobID, testBatch(4), "tr-merge", "acme", pub.publish)

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
			Detail: fmt.Sprintf("simulated=%d failed=0", lease.End-lease.Start),
		})
	}
	take(t, c, jobID, done, pub, 4)

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
		"lease_grant tenant=acme job=j-000001 lease=l-000001",
		"lease_run tenant=acme job=j-000001 lease=l-000001",
		"lease_done tenant=acme job=j-000001 lease=l-000001 node=n-0001 detail=simulated=2",
		"lease_upload tenant=acme job=j-000001 lease=l-000001",
		"lease_grant tenant=acme job=j-000001 lease=l-000002",
		"lease_run tenant=acme job=j-000001 lease=l-000002",
		"lease_done tenant=acme job=j-000001 lease=l-000002 node=n-0002 detail=simulated=2",
		"lease_upload tenant=acme job=j-000001 lease=l-000002",
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
