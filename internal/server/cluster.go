package server

import (
	"context"
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

// ClusterOptions turns the daemon into a cluster coordinator: batch jobs'
// uncached scenarios run on registered worker nodes instead of the local
// CPU pool, and their results fill the daemon's one result cache.
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
		Flight:    s.flight,
	})
	s.clusterToken = co.Token
	s.metrics.SetClusterStats(s.coord.Stats)
	s.route("POST", "/v1/cluster/register", s.clusterAuth(s.handleClusterRegister))
	s.route("POST", "/v1/cluster/heartbeat", s.clusterAuth(s.handleClusterHeartbeat))
	s.route("POST", "/v1/cluster/lease", s.clusterAuth(s.handleClusterLease))
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
// (register, heartbeat, lease) are a few hundred bytes; uploads carry result
// frames — KBs each, a lease's worth per request — so they get a larger but
// still bounded cap.
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

// leaseWait bounds how long an idle lease request is held open waiting for
// work. Nodes ask again as soon as a hold ends, so it also caps an idle
// node's lease traffic at five requests per second.
const leaseWait = 200 * time.Millisecond

// handleClusterLease answers a lease request, holding it open for up to
// leaseWait when no work is pending; a node that disconnects ends the hold.
func (s *Server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaseRequest
	if !decodeCluster(w, r, &req, clusterControlBodyLimit) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), leaseWait)
	defer cancel()
	resp, err := s.coord.Lease(ctx, &req)
	if err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, resp)
}

// handleClusterUpload accepts a lease's outcomes as a hetwire-bin/v1 upload
// stream of scenario frames (wire.EncodeUpload); any other body is rejected
// as bad_wire. The embedded result frames reach the coordinator verbatim,
// so an accepted result's bytes are exactly what the node's simulation
// produced.
func (s *Server) handleClusterUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, clusterUploadBodyLimit))
	var hdr *wire.UploadHeader
	var scenarios []wire.Scenario
	if err == nil {
		hdr, scenarios, err = wire.DecodeUpload(body)
	}
	if err != nil {
		httpErrorReason(w, http.StatusBadRequest, "bad_wire",
			fmt.Errorf("decoding cluster upload: %w", err))
		return
	}
	resp, err := s.coord.Upload(hdr, scenarios)
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

// runClusterBatch executes a batch job's uncached scenarios on the cluster:
// the coordinator takes the job with the expansion, keys and pending
// indices admission made, and publishes each scenario's frame into the job
// as its upload lands; an accepted result is stored in the cache here and
// billed to the tenant, as a local fill is. The frames are bit-identical to
// local batch execution — each lands at its expansion index, carries the
// daemon's request and embeds the uploaded result frame verbatim — so the
// golden corpus reproduces exactly through either path. The nodes'
// node_sim total is the job's one node-side span.
func (s *Server) runClusterBatch(job *Job) error {
	p := job.progress
	done := s.coord.Submit(job.ID, p.reqs, p.keys, p.pending, job.TraceID, job.tenant.Name(),
		func(i int, frame, result []byte) {
			if result != nil {
				s.cache.Put(p.keys[i], result)
				job.tenant.AddCacheBytes(int64(len(result)))
			}
			p.publishFrame(i, frame)
		})
	simMS, err := s.coord.AwaitJob(job.ctx, job.ID, done)
	if simMS > 0 {
		job.spans.observe(cluster.SpanSim, time.Now(), time.Duration(simMS*float64(time.Millisecond)))
	}
	return err
}

// renderCluster emits the coordinator metrics; a nil hook (non-coordinator
// daemons, direct registry construction in tests) renders nothing.
func (m *Metrics) renderCluster(w io.Writer) {
	if m.clusterStats == nil {
		return
	}
	cs := m.clusterStats()
	writeGauge(w, "hetwired_cluster_nodes", "Worker nodes currently registered and alive.", float64(cs.NodesAlive))
	writeCounter(w, "hetwired_cluster_nodes_registered_total", "Lifetime node registrations.", cs.NodesRegistered)
	writeCounter(w, "hetwired_cluster_nodes_dead_total", "Nodes declared dead on missed heartbeats.", cs.NodesDead)
	writeGauge(w, "hetwired_cluster_leases_outstanding", "Work leases currently held by nodes.", float64(cs.LeasesOutstanding))
	writeCounter(w, "hetwired_cluster_leases_issued_total", "Work leases handed to nodes.", cs.LeasesIssued)
	writeCounter(w, "hetwired_cluster_leases_expired_total", "Leases whose deadline passed before upload.", cs.LeasesExpired)
	writeCounter(w, "hetwired_cluster_scenarios_redispatched_total", "Scenario indices re-leased after an expiry.", cs.ScenariosRedispatched)
	fmt.Fprintf(w, "# HELP hetwired_cluster_uploads_total Node uploads by outcome.\n# TYPE hetwired_cluster_uploads_total counter\n")
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"accepted\"} %d\n", cs.UploadsAccepted)
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"duplicate\"} %d\n", cs.UploadsDuplicate)
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"stale\"} %d\n", cs.UploadsStale)
	fmt.Fprintf(w, "hetwired_cluster_uploads_total{result=\"conflict\"} %d\n", cs.UploadConflicts)
	fmt.Fprintf(w, "# HELP hetwired_cluster_jobs_total Cluster jobs by lifecycle event.\n# TYPE hetwired_cluster_jobs_total counter\n")
	fmt.Fprintf(w, "hetwired_cluster_jobs_total{event=\"submitted\"} %d\n", cs.JobsSubmitted)
	fmt.Fprintf(w, "hetwired_cluster_jobs_total{event=\"completed\"} %d\n", cs.JobsCompleted)
	fmt.Fprintf(w, "hetwired_cluster_jobs_total{event=\"cancelled\"} %d\n", cs.JobsCancelled)
}
