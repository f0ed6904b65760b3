package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hetwire"
	"hetwire/internal/cluster"
	"hetwire/internal/wire"
)

// ClusterOptions turns the daemon into a cluster coordinator: batch jobs are
// sharded into work leases and executed by registered worker nodes instead
// of the local worker's own CPU, with results flowing through the daemon's
// content-addressed cache (the federated result store).
type ClusterOptions struct {
	// Token is the shared cluster secret; every /v1/cluster request must
	// carry it as "Authorization: Bearer <token>". An empty token disables
	// the endpoints entirely (fail closed) — the daemon refuses to run an
	// open coordinator.
	Token string
	// LeaseSize, LeaseTTL, Heartbeat, and DeadAfter tune the coordinator;
	// zero values take the cluster package defaults.
	LeaseSize int
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	DeadAfter time.Duration
}

// initCluster builds the coordinator, registers the cluster endpoints, and
// wires the coordinator counters into /metrics. Called from New when
// Options.Cluster is set.
func (s *Server) initCluster(co *ClusterOptions) {
	s.coord = cluster.New(cluster.Options{
		LeaseSize: co.LeaseSize,
		LeaseTTL:  co.LeaseTTL,
		Heartbeat: co.Heartbeat,
		DeadAfter: co.DeadAfter,
		Cache:     s.cache,
		Flight:    s.flight,
		Logger:    s.opts.Logger,
	})
	s.clusterToken = co.Token
	s.metrics.SetClusterStats(s.coord.Stats)
	s.route("POST", "/v1/cluster/register", s.clusterAuth(s.handleClusterRegister))
	s.route("POST", "/v1/cluster/heartbeat", s.clusterAuth(s.handleClusterHeartbeat))
	s.route("POST", "/v1/cluster/lease", s.clusterAuth(s.handleClusterLease))
	s.route("POST", "/v1/cluster/cachecheck", s.clusterAuth(s.handleClusterCacheCheck))
	s.route("POST", "/v1/cluster/upload", s.clusterAuth(s.handleClusterUpload))
	s.route("GET", "/v1/cluster/nodes", s.clusterAuth(s.handleClusterNodes))
}

// clusterAuth gates a cluster endpoint behind the shared bearer token.
// Comparison is constant-time; failures answer 401 with the machine-readable
// "unauthorized" reason, never detail about which part was wrong.
func (s *Server) clusterAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || s.clusterToken == "" ||
			subtle.ConstantTimeCompare([]byte(token), []byte(s.clusterToken)) != 1 {
			httpErrorReason(w, http.StatusUnauthorized, cluster.ReasonUnauthorized,
				errors.New("cluster: missing or invalid bearer token"))
			return
		}
		h(w, r)
	}
}

// Body size bounds for cluster protocol requests: a coordinator must not
// buffer arbitrary bytes from a compromised node. Control messages
// (register, heartbeat, lease, cachecheck) are at most a lease's worth of
// cache keys; uploads carry result frames — KBs each, a lease's worth per
// request — so they get a larger but still bounded cap.
const (
	clusterControlBodyLimit = 1 << 20
	clusterUploadBodyLimit  = 16 << 20
)

// decodeCluster reads a cluster protocol body within the given size bound.
func decodeCluster(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		httpErrorReason(w, http.StatusBadRequest, "bad_json",
			fmt.Errorf("decoding cluster request: %w", err))
		return false
	}
	return true
}

// clusterError maps a coordinator rejection to its HTTP response: unknown
// nodes are 404 (re-register), incompatible nodes 409 (rebuild), everything
// else a plain 400 — always with the machine-readable reason code.
func clusterError(w http.ResponseWriter, err error) {
	reason := hetwire.ReasonCode(err)
	status := http.StatusBadRequest
	switch reason {
	case cluster.ReasonUnknownNode:
		status = http.StatusNotFound
	case cluster.ReasonIncompatibleNode:
		status = http.StatusConflict
	}
	httpErrorReason(w, status, reason, err)
}

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if !decodeCluster(w, r, &req, clusterControlBodyLimit) {
		return
	}
	resp, err := s.coord.Register(&req)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if !decodeCluster(w, r, &req, clusterControlBodyLimit) {
		return
	}
	writeJSON(w, s.coord.Heartbeat(&req))
}

func (s *Server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaseRequest
	if !decodeCluster(w, r, &req, clusterControlBodyLimit) {
		return
	}
	resp, err := s.coord.Lease(&req)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleClusterCacheCheck(w http.ResponseWriter, r *http.Request) {
	var req cluster.CacheCheckRequest
	if !decodeCluster(w, r, &req, clusterControlBodyLimit) {
		return
	}
	resp, err := s.coord.CacheCheck(&req)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, resp)
}

// handleClusterUpload accepts a lease's results as a hetwire-bin/v1 upload
// stream (wire.EncodeUpload); any other body is rejected as bad_wire. The
// embedded result frames reach the coordinator verbatim, so an accepted
// result's bytes are exactly what the node's simulation produced.
func (s *Server) handleClusterUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, clusterUploadBodyLimit))
	var hdr *wire.UploadHeader
	var results []wire.UploadResult
	if err == nil {
		hdr, results, err = wire.DecodeUpload(body)
	}
	if err != nil {
		httpErrorReason(w, http.StatusBadRequest, "bad_wire",
			fmt.Errorf("decoding cluster upload: %w", err))
		return
	}
	resp, err := s.coord.Upload(hdr, results)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleClusterNodes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"nodes": s.coord.Nodes(),
		"stats": s.coord.Stats(),
	})
}

// runClusterBatch executes a batch job through the cluster fabric instead of
// the local CPU pool: submit to the coordinator, wait for nodes to lease and
// upload every scenario, then collect the per-scenario wire frames and
// assemble the batch stream by pure byte copy. The stream is bit-identical
// to local batch execution — scenarios land at their expansion index, carry
// no node identity, and embed the uploaded result frames verbatim — so the
// golden corpus reproduces exactly through either path.
func (s *Server) runClusterBatch(job *Job) ([]byte, bool, error) {
	jobID, done, err := s.coord.Submit(job.Batch, job.TraceID, job.tenant.Name())
	if err != nil {
		return nil, false, err
	}
	if err := s.coord.AwaitJob(job.ctx, jobID, done); err != nil {
		return nil, false, err
	}
	frames, outcomes, spanDur, err := s.coord.TakeFrames(jobID)
	if err != nil {
		return nil, false, err
	}
	// Merge node-reported lease phases into the job's span breakdown. Only
	// the fixed protocol span names are admitted so a misbehaving node cannot
	// grow the span list (or the phase-metric label set) without bound.
	for _, name := range []string{cluster.SpanCacheCheck, cluster.SpanSim, cluster.SpanUpload} {
		if ms, ok := spanDur[name]; ok {
			job.spans.observe(name, time.Now(), time.Duration(ms*float64(time.Millisecond)))
		}
	}
	for i, out := range outcomes {
		var ptErr error
		if out.Error != "" {
			ptErr = errors.New(out.Error)
		}
		// Freshly simulated scenarios entered the federated cache via node
		// upload rather than the local fill path, so insert attribution
		// happens here: cached outcomes were already resident (someone else
		// paid for them).
		if ptErr == nil && !out.Cached {
			job.tenant.AddCacheBytes(int64(len(frames[i])))
		}
		job.progress.finishPoint(i, out.IPC, out.Cached, ptErr, 0)
		job.progress.publishFrame(i, frames[i])
	}
	return assembleBatch(frames)
}

// renderCluster emits the coordinator metrics; a nil hook (non-coordinator
// daemons, direct registry construction in tests) renders nothing.
func (m *Metrics) renderCluster(w io.Writer) {
	if m.clusterStats == nil {
		return
	}
	cs := m.clusterStats()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("hetwired_cluster_nodes", "Worker nodes currently registered and alive.", float64(cs.NodesAlive))
	counter("hetwired_cluster_nodes_registered_total", "Lifetime node registrations.", cs.NodesRegistered)
	counter("hetwired_cluster_nodes_dead_total", "Nodes declared dead on missed heartbeats.", cs.NodesDead)
	gauge("hetwired_cluster_leases_outstanding", "Work leases currently held by nodes.", float64(cs.LeasesOutstanding))
	counter("hetwired_cluster_leases_issued_total", "Work leases handed to nodes.", cs.LeasesIssued)
	counter("hetwired_cluster_leases_expired_total", "Leases whose deadline passed before upload.", cs.LeasesExpired)
	counter("hetwired_cluster_scenarios_redispatched_total", "Scenario indices re-leased after an expiry.", cs.ScenariosRedispatched)
	fmt.Fprintf(w, "# HELP hetwired_cluster_uploads_total Node uploads by outcome.\n# TYPE hetwired_cluster_uploads_total counter\n")
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"accepted\"} %d\n", cs.UploadsAccepted)
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"duplicate\"} %d\n", cs.UploadsDuplicate)
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"stale\"} %d\n", cs.UploadsStale)
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"conflict\"} %d\n", cs.UploadConflicts)
	counter("hetwired_cluster_federated_cache_hits_total", "Scenarios answered by the federated result cache instead of a node simulation.", cs.FederatedHits)
	fmt.Fprintf(w, "# HELP hetwired_cluster_jobs_total Cluster jobs by lifecycle event.\n# TYPE hetwired_cluster_jobs_total counter\n")
	fmt.Fprintf(w, "hetwired_cluster_jobs_total{event=\"submitted\"} %d\n", cs.JobsSubmitted)
	fmt.Fprintf(w, "hetwired_cluster_jobs_total{event=\"completed\"} %d\n", cs.JobsCompleted)
	fmt.Fprintf(w, "hetwired_cluster_jobs_total{event=\"cancelled\"} %d\n", cs.JobsCancelled)
}
