// End-to-end trace propagation across the ops plane: a client-minted trace
// ID follows a streamed batch job from submission through the coordinator's
// work leases to a real node agent's flight recorder, and the two dumps
// merge into one causal timeline.
package server_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/client"
	"hetwire/internal/cluster/node"
	"hetwire/internal/obs/flight"
	"hetwire/internal/server"
)

func TestClusterTracePropagationEndToEnd(t *testing.T) {
	h := startCoordinator(t, server.ClusterOptions{LeaseSize: 2})

	// A real node agent with its own flight recorder.
	nodeFR := flight.New(256)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nodeDone := make(chan error, 1)
	go func() {
		nodeDone <- node.Run(ctx, node.Options{
			Coordinator: h.ts.URL,
			Token:       testClusterToken,
			Name:        "trace-node",
			Flight:      nodeFR,
		})
	}()

	const traceID = "trace-prop-e2e-01"
	cl := client.New(client.Options{BaseURL: h.ts.URL, TraceID: traceID})
	batch := &hetwire.BatchRequest{Sweep: &hetwire.BatchSweep{
		Benchmarks: []string{"gzip", "mcf"},
		Models:     []string{"I"},
		Ns:         []uint64{4000, 8000},
	}}
	var st server.JobStatus
	if err := cl.DoJSON(ctx, http.MethodPost, "/v1/jobs",
		map[string]any{"batch": batch}, "trace-prop-idem", &st); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.TraceID != traceID {
		t.Fatalf("submitted job trace = %q, want %q", st.TraceID, traceID)
	}

	// Follow the job over the binary streaming endpoint; the stream response
	// must echo the trace header it was called with.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, h.ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	req.Header.Set(server.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(server.TraceHeader); got != traceID {
		t.Errorf("stream echoed trace %q, want %q", got, traceID)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("draining stream: %v", err)
	}
	final, err := cl.Await(ctx, st.ID, 10*time.Millisecond)
	if err != nil || final.State != server.StateDone {
		t.Fatalf("await: state=%v err=%v", final.State, err)
	}

	cancel()
	<-nodeDone

	// Node side: lease execution and each lease's outcome carry the
	// client's trace.
	runs, outcomes := 0, 0
	for _, ev := range nodeFR.Snapshot() {
		switch ev.Kind {
		case flight.KindLeaseRun, flight.KindSpan, flight.KindLeaseDone:
			if ev.Trace != traceID {
				t.Errorf("node event %+v lost the trace", ev)
			}
		}
		switch ev.Kind {
		case flight.KindLeaseRun:
			runs++
		case flight.KindLeaseDone:
			outcomes++
			if ev.Reason != "" || !strings.HasPrefix(ev.Detail, "simulated=") {
				t.Errorf("lease outcome %+v, want a clean simulated/skipped/failed count", ev)
			}
		}
	}
	if runs == 0 || outcomes != runs {
		t.Fatalf("node recorded %d lease runs and %d outcomes, want one outcome per run", runs, outcomes)
	}

	// Coordinator side: the flight dump records the lease lifecycle under the
	// same trace.
	dreq, _ := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/debug/flight", nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	_, coordEvents, err := flight.ReadDump(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	coordKinds := map[string]bool{}
	for _, ev := range coordEvents {
		if ev.Trace == traceID {
			coordKinds[ev.Kind] = true
		}
	}
	for _, want := range []string{flight.KindAdmit, flight.KindLeaseGrant, flight.KindLeaseUpload} {
		if !coordKinds[want] {
			t.Errorf("coordinator dump missing %q for trace %s (got %v)", want, traceID, coordKinds)
		}
	}

	// The two dumps merge into one causal timeline for the trace: the
	// coordinator's grant block precedes the node's execution and the
	// lease's outcome lands inside it.
	timeline := flight.MergeTimeline([]flight.Source{
		{Name: "hetwired", Events: flight.Canonical(coordEvents)},
		{Name: "trace-node", Events: flight.Canonical(nodeFR.Snapshot())},
	}, false)
	if !strings.Contains(timeline, "trace "+traceID) {
		t.Fatalf("merged timeline has no section for %s:\n%s", traceID, timeline)
	}
	grant := strings.Index(timeline, "lease_grant")
	run := strings.Index(timeline, "lease_run")
	done := strings.Index(timeline, "lease_done")
	if !(grant >= 0 && run > grant && done > run) {
		t.Errorf("timeline not causally ordered (grant=%d run=%d done=%d):\n%s",
			grant, run, done, timeline)
	}

	// Wire sanity for the streaming route label: the normalized route must
	// not fold the stream endpoint into the jobs/{id} label (satellite b).
	if got := server.NormalizeRoute(http.MethodGet, "/v1/jobs/"+st.ID+"/stream"); got != "GET /v1/jobs/{id}/stream" {
		t.Errorf("NormalizeRoute(stream) = %q", got)
	}
}
