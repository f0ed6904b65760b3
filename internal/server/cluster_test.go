// Cluster end-to-end tests: a coordinator daemon plus in-process node agents
// driving the full wire protocol. This file is an external test package
// because the node agent imports internal/client, which imports
// internal/server — linking it into package server's internal tests would
// cycle.
package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/client"
	"hetwire/internal/cluster"
	"hetwire/internal/cluster/node"
	"hetwire/internal/server"
	"hetwire/internal/wire"
)

const testClusterToken = "cluster-e2e-secret"

// goldenCorpusBatch is the repo's 72-scenario golden determinism corpus
// (3 models x 2 topologies x 6 benchmarks x 2 instruction counts) expressed
// as one batch request; cluster execution must reproduce it bit-identically
// to single-process execution.
func goldenCorpusBatch() *hetwire.BatchRequest {
	return &hetwire.BatchRequest{Sweep: &hetwire.BatchSweep{
		Models:     []string{"I", "V", "VIII"},
		Benchmarks: []string{"gzip", "gcc", "mcf", "swim", "mesa", "vortex"},
		Clusters:   []int{4, 16},
		Ns:         []uint64{4_000, 16_000},
	}}
}

var (
	corpusOnce     sync.Once
	corpusBaseline *hetwire.BatchResponse
	corpusErr      error
)

// corpusLocal computes the single-process baseline once per test binary.
func corpusLocal(t *testing.T) *hetwire.BatchResponse {
	t.Helper()
	corpusOnce.Do(func() {
		corpusBaseline, corpusErr = goldenCorpusBatch().Execute()
	})
	if corpusErr != nil {
		t.Fatalf("local corpus baseline: %v", corpusErr)
	}
	return corpusBaseline
}

type clusterHarness struct {
	t   *testing.T
	srv *server.Server
	ts  *httptest.Server
}

func startCoordinator(t *testing.T, co server.ClusterOptions, mods ...func(*server.Options)) *clusterHarness {
	t.Helper()
	co.Token = testClusterToken
	opts := server.Options{Workers: 2, Cluster: &co}
	for _, mod := range mods {
		mod(&opts)
	}
	s := server.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return &clusterHarness{t: t, srv: s, ts: ts}
}

// startNode runs a node agent until ctx ends, returning its exit channel.
func (h *clusterHarness) startNode(ctx context.Context, name string, onLease func(*cluster.Lease)) <-chan error {
	errCh := make(chan error, 1)
	go func() {
		errCh <- node.Run(ctx, node.Options{
			Coordinator: h.ts.URL,
			Token:       testClusterToken,
			Name:        name,
			OnLease:     onLease,
		})
	}()
	return errCh
}

// runBatch submits a batch job through the public API and awaits its result.
func (h *clusterHarness) runBatch(ctx context.Context, idemKey string, b *hetwire.BatchRequest) *hetwire.BatchResponse {
	return h.runBatchAs(ctx, idemKey, "", b)
}

// runBatchAs is runBatch under a tenant API key (empty key: anonymous).
func (h *clusterHarness) runBatchAs(ctx context.Context, idemKey, tenantKey string, b *hetwire.BatchRequest) *hetwire.BatchResponse {
	h.t.Helper()
	cl := client.New(client.Options{BaseURL: h.ts.URL, TenantKey: tenantKey})
	var st server.JobStatus
	if err := cl.DoJSON(ctx, http.MethodPost, "/v1/jobs",
		map[string]any{"batch": b}, idemKey, &st); err != nil {
		h.t.Fatalf("submitting batch: %v", err)
	}
	st, err := cl.Await(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		h.t.Fatalf("awaiting job %s: %v", st.ID, err)
	}
	if st.State != server.StateDone {
		h.t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var out hetwire.BatchResponse
	if err := json.Unmarshal(st.Result, &out); err != nil {
		h.t.Fatalf("decoding batch result: %v", err)
	}
	return &out
}

// stats reads the coordinator counters through the authenticated nodes
// endpoint.
func (h *clusterHarness) stats() cluster.Stats {
	h.t.Helper()
	req, _ := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/cluster/nodes", nil)
	req.Header.Set("Authorization", "Bearer "+testClusterToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("fetching cluster stats: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Stats cluster.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		h.t.Fatalf("decoding cluster stats: %v", err)
	}
	return body.Stats
}

// waitStats polls until cond holds or the deadline passes.
func (h *clusterHarness) waitStats(cond func(cluster.Stats) bool, what string) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond(h.stats()) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	h.t.Fatalf("timed out waiting for %s (stats %+v)", what, h.stats())
}

// requireBitIdentical asserts that got reproduces want scenario for scenario:
// same completion accounting and byte-identical marshalled responses.
func requireBitIdentical(t *testing.T, want, got *hetwire.BatchResponse) {
	t.Helper()
	if got.Completed != want.Completed || got.Failed != want.Failed {
		t.Fatalf("completed/failed = %d/%d, want %d/%d",
			got.Completed, got.Failed, want.Completed, want.Failed)
	}
	if len(got.Scenarios) != len(want.Scenarios) {
		t.Fatalf("scenario count %d, want %d", len(got.Scenarios), len(want.Scenarios))
	}
	for i := range want.Scenarios {
		wb, err := json.Marshal(want.Scenarios[i].Response)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got.Scenarios[i].Response)
		if err != nil {
			t.Fatal(err)
		}
		if string(wb) != string(gb) {
			t.Errorf("scenario %d diverged:\n  local:   %s\n  cluster: %s", i, wb, gb)
		}
	}
}

// TestClusterGoldenCorpus runs the golden corpus through the cluster path at
// one node, two nodes, and two nodes with one killed mid-lease, and requires
// every configuration to be bit-identical to single-process execution.
func TestClusterGoldenCorpus(t *testing.T) {
	baseline := corpusLocal(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	t.Run("one_node", func(t *testing.T) {
		h := startCoordinator(t, server.ClusterOptions{})
		nodeCtx, stop := context.WithCancel(ctx)
		defer stop()
		h.startNode(nodeCtx, "solo", nil)
		out := h.runBatch(ctx, "corpus-one-node", goldenCorpusBatch())
		requireBitIdentical(t, baseline, out)
	})

	t.Run("two_nodes", func(t *testing.T) {
		h := startCoordinator(t, server.ClusterOptions{LeaseSize: 8})
		nodeCtx, stop := context.WithCancel(ctx)
		defer stop()
		h.startNode(nodeCtx, "alpha", nil)
		h.startNode(nodeCtx, "beta", nil)
		out := h.runBatch(ctx, "corpus-two-nodes", goldenCorpusBatch())
		requireBitIdentical(t, baseline, out)
		if st := h.stats(); st.NodesRegistered < 2 {
			t.Errorf("expected two registrations, stats %+v", st)
		}
	})

	t.Run("two_nodes_one_killed_mid_lease", func(t *testing.T) {
		// Aggressive liveness settings so the killed node's lease re-dispatches
		// quickly: dead after 3 missed 150ms heartbeats, lease TTL 2s.
		h := startCoordinator(t, server.ClusterOptions{
			LeaseSize: 8,
			LeaseTTL:  2 * time.Second,
			Heartbeat: 150 * time.Millisecond,
			DeadAfter: 600 * time.Millisecond,
		})
		// The doomed node kills its own context on its first lease — after the
		// coordinator committed the range to it, before any upload.
		doomedCtx, kill := context.WithCancel(ctx)
		defer kill()
		var killOnce sync.Once
		doomedExit := h.startNode(doomedCtx, "doomed", func(*cluster.Lease) {
			killOnce.Do(kill)
		})

		resCh := make(chan *hetwire.BatchResponse, 1)
		go func() { resCh <- h.runBatch(ctx, "corpus-kill", goldenCorpusBatch()) }()
		// Hold the healthy node back until the doomed one holds a lease, so the
		// straggler path is genuinely exercised.
		h.waitStats(func(st cluster.Stats) bool { return st.LeasesIssued >= 1 }, "first lease issued")
		healthyCtx, stop := context.WithCancel(ctx)
		defer stop()
		h.startNode(healthyCtx, "healthy", nil)

		select {
		case out := <-resCh:
			requireBitIdentical(t, baseline, out)
		case <-ctx.Done():
			t.Fatal("batch did not complete after mid-lease node death")
		}
		st := h.stats()
		if st.LeasesExpired == 0 {
			t.Errorf("no lease expired despite the killed node: %+v", st)
		}
		if st.ScenariosRedispatched == 0 {
			t.Errorf("no scenario re-dispatched despite the killed node: %+v", st)
		}
		select {
		case <-doomedExit:
		case <-time.After(10 * time.Second):
			t.Error("killed node never exited")
		}
	})
}

// TestClusterFederatedCacheHits reruns a sweep and requires the second pass
// to be answered by the federated result cache rather than re-simulation.
func TestClusterFederatedCacheHits(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h := startCoordinator(t, server.ClusterOptions{})
	nodeCtx, stop := context.WithCancel(ctx)
	defer stop()
	h.startNode(nodeCtx, "alpha", nil)
	h.startNode(nodeCtx, "beta", nil)

	sweep := &hetwire.BatchRequest{Sweep: &hetwire.BatchSweep{
		Models:     []string{"I", "V"},
		Benchmarks: []string{"gzip", "mcf"},
		Ns:         []uint64{4_000},
	}}
	first := h.runBatch(ctx, "fed-first", sweep)
	if first.Completed != 4 || first.Failed != 0 {
		t.Fatalf("first pass: %+v", first)
	}
	second := h.runBatch(ctx, "fed-second", sweep)
	if second.Completed != 4 || second.CacheHits != 4 {
		t.Fatalf("second pass not federated: completed=%d cache_hits=%d",
			second.Completed, second.CacheHits)
	}
	requireBitIdentical(t, first, second)
	if st := h.stats(); st.FederatedHits < 4 {
		t.Errorf("federated hits = %d, want >= 4 (stats %+v)", st.FederatedHits, st)
	}

	// The federated counter is on /metrics for operators.
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics := readAll(t, resp)
	if !strings.Contains(metrics, "hetwired_cluster_federated_cache_hits_total") {
		t.Error("/metrics missing hetwired_cluster_federated_cache_hits_total")
	}
	if strings.Contains(metrics, "hetwired_cluster_federated_cache_hits_total 0\n") {
		t.Error("/metrics reports zero federated cache hits after a federated pass")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// clusterPost sends an authenticated cluster request and returns the status
// and the machine-readable rejection reason.
func (h *clusterHarness) clusterPost(path, contentType, body string) (int, string) {
	h.t.Helper()
	req, _ := http.NewRequest(http.MethodPost, h.ts.URL+path, strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Authorization", "Bearer "+testClusterToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg struct {
		Reason string `json:"reason"`
	}
	json.NewDecoder(resp.Body).Decode(&msg)
	return resp.StatusCode, msg.Reason
}

// TestClusterUploadIsFramesOnly: the upload endpoint speaks only the
// hetwire-bin/v1 upload stream — a JSON body, whatever its content type, is
// 400 bad_wire — and a node of the protocol that still uploaded JSON is
// refused at registration instead of looping on rejected uploads.
func TestClusterUploadIsFramesOnly(t *testing.T) {
	h := startCoordinator(t, server.ClusterOptions{})
	jsonUpload := `{"node_id":"n-0001","lease_id":"l-000001","job_id":"cj-000001","results":[{"index":0,"body":{"ipc":1}}]}`
	for _, ct := range []string{"application/json", wire.ContentType} {
		if code, reason := h.clusterPost("/v1/cluster/upload", ct, jsonUpload); code != http.StatusBadRequest || reason != "bad_wire" {
			t.Errorf("JSON upload as %s: %d %q, want 400 bad_wire", ct, code, reason)
		}
	}
	register := func(protocol int) string {
		return fmt.Sprintf(`{"name":"old","protocol":%d,"compat_hash":%q}`, protocol, cluster.CompatHash())
	}
	if code, reason := h.clusterPost("/v1/cluster/register", "application/json", register(1)); code != http.StatusConflict || reason != cluster.ReasonIncompatibleNode {
		t.Errorf("protocol-1 registration: %d %q, want 409 %s", code, reason, cluster.ReasonIncompatibleNode)
	}
	if code, _ := h.clusterPost("/v1/cluster/register", "application/json", register(cluster.ProtocolVersion)); code != http.StatusOK {
		t.Errorf("current-protocol registration: %d, want 200", code)
	}
}

// TestClusterAuth locks the protocol behind the shared token: missing and
// wrong tokens answer 401 with the machine-readable "unauthorized" reason.
func TestClusterAuth(t *testing.T) {
	h := startCoordinator(t, server.ClusterOptions{})
	post := func(token string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/cluster/register",
			strings.NewReader(`{"name":"x"}`))
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Reason string `json:"reason"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Reason
	}
	if code, reason := post(""); code != http.StatusUnauthorized || reason != cluster.ReasonUnauthorized {
		t.Errorf("no token: %d reason %q, want 401 %q", code, reason, cluster.ReasonUnauthorized)
	}
	if code, reason := post("wrong-secret"); code != http.StatusUnauthorized || reason != cluster.ReasonUnauthorized {
		t.Errorf("wrong token: %d reason %q, want 401 %q", code, reason, cluster.ReasonUnauthorized)
	}

	// A node built with the wrong token fails terminally (no retry storm).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := node.Run(ctx, node.Options{Coordinator: h.ts.URL, Token: "wrong-secret", Name: "intruder"})
	if err == nil || ctx.Err() != nil {
		t.Fatalf("node with wrong token: err %v (ctx %v), want immediate rejection", err, ctx.Err())
	}

	// A daemon without cluster mode has no cluster surface at all.
	plain := server.New(server.Options{Workers: 1})
	ts := httptest.NewServer(plain.Handler())
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		plain.Shutdown(sctx)
		ts.Close()
	})
	resp, err := http.Post(ts.URL+"/v1/cluster/register", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cluster endpoint on a plain daemon: %d, want 404", resp.StatusCode)
	}
}
