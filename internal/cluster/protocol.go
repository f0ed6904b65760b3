// Package cluster is the distributed sweep fabric: a coordinator that
// expands BatchRequest sweeps in canonical order, shards the scenario index
// space into bounded work leases, and hands them to registered worker nodes
// over a small authenticated HTTP protocol, plus the node agent that pulls
// leases, simulates, and uploads content-addressed results.
//
// One encoding per message: control messages (register, heartbeat, lease,
// cache check, and the upload acknowledgement) are JSON; results travel
// only as hetwire-bin/v1 upload streams (wire.EncodeUpload), so the
// coordinator stores exactly the frame bytes a node's simulation produced.
//
// Determinism contract: the coordinator expands each batch exactly once
// (hetwire.BatchRequest.Expand) and every scenario result is addressed by
// its expansion index. A scenario's result frame is a pure function of its
// RunRequest (simulations are deterministic and the wire encoding is
// canonical), so the assembled batch stream is bit-identical regardless of
// node count, lease size, which node ran which range, or how lease expiry
// and re-dispatch interleaved. Duplicate uploads — a straggler finishing
// after its lease was re-dispatched — are no-ops by construction: the slot
// already holds the same bytes, and the coordinator compares the frames to
// prove it. Scenario errors are not content-addressed, so they are only
// trusted from the lease that still owns the slot; a straggler's stale
// error is dropped rather than allowed to override a healthy re-dispatch.
//
// Robustness contract: leases carry deadlines; an expired lease returns its
// unfinished indices to the pending queue for another node (straggler
// re-dispatch). Nodes that miss enough heartbeats are declared dead and
// their leases expire immediately. A node checks the coordinator's
// federated result-cache index before simulating and skips scenarios whose
// results are already known; uploaded results populate the coordinator's
// content-addressed cache, so cluster work and single-box work share one
// result store.
package cluster

import (
	"fmt"

	"hetwire"
	"hetwire/internal/obs/flight"
)

// ProtocolVersion is bumped on any incompatible change to the wire types or
// lease semantics; register rejects mismatched nodes. Version 2 made the
// hetwire-bin/v1 upload stream the only upload encoding.
const ProtocolVersion = 2

// Machine-readable reason codes specific to the cluster protocol. They ride
// hetwire.RequestError, so hetwire.ReasonCode extracts them uniformly and
// the daemon returns them in error bodies next to the human message.
const (
	// ReasonUnauthorized: missing or wrong cluster token.
	ReasonUnauthorized = "unauthorized"
	// ReasonUnknownNode: the node ID is not registered (or was declared dead);
	// the node must re-register.
	ReasonUnknownNode = "unknown_node"
	// ReasonIncompatibleNode: protocol version or simulator compatibility
	// fingerprint mismatch — results from this node could not be trusted to
	// be bit-identical.
	ReasonIncompatibleNode = "incompatible_node"
	// ReasonClusterDisabled: the daemon is not running as a coordinator.
	ReasonClusterDisabled = "cluster_disabled"
)

// CompatHash is the simulator-compatibility fingerprint exchanged at
// registration: the canonical ConfigHash of the default machine plus the
// protocol version. Two builds agree exactly when their default
// configuration serializes identically — a cheap, content-addressed proxy
// for "same simulator semantics" that catches config-schema drift without a
// hand-maintained version number.
func CompatHash() string {
	h, err := hetwire.ConfigHash(hetwire.DefaultConfig())
	if err != nil {
		// The default config always has a canonical form.
		panic("cluster: default config has no canonical hash: " + err.Error())
	}
	return fmt.Sprintf("v%d/%s", ProtocolVersion, h)
}

// NodeCaps describes a worker node's execution capacity, reported at
// registration and surfaced in the coordinator's node listing.
type NodeCaps struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version,omitempty"`
}

// RegisterRequest announces a node to the coordinator.
type RegisterRequest struct {
	// Name is a human-readable node label (hostname-like); the coordinator
	// assigns the authoritative NodeID.
	Name string `json:"name"`
	// Protocol is the node's ProtocolVersion.
	Protocol int `json:"protocol"`
	// CompatHash is the node's simulator-compatibility fingerprint; it must
	// equal the coordinator's own (see CompatHash).
	CompatHash string   `json:"compat_hash"`
	Caps       NodeCaps `json:"caps"`
}

// RegisterResponse carries the assigned identity and the cadence the
// coordinator expects.
type RegisterResponse struct {
	NodeID string `json:"node_id"`
	// HeartbeatMS is how often the node must check in; missing several in a
	// row declares the node dead.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// LeaseTTLMS is the work-lease deadline the coordinator will stamp on
	// leases; a node that cannot finish a lease within it should ask for
	// smaller leases (Max on LeaseRequest).
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// PollMS is the suggested idle poll interval when no work is available.
	PollMS int64 `json:"poll_ms"`
}

// HeartbeatRequest is the periodic liveness check-in. Events optionally
// piggybacks the node's flight-recorder drain: events recorded since the
// last acknowledged heartbeat, for the coordinator to index per job. It
// rides the JSON heartbeat so the upload stream (and its golden-wire
// fixtures) stays untouched.
type HeartbeatRequest struct {
	NodeID string         `json:"node_id"`
	Events []flight.Event `json:"events,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. Known=false tells the node the
// coordinator no longer recognises it (restart, or it was declared dead);
// the node must re-register before asking for work.
type HeartbeatResponse struct {
	Known bool `json:"known"`
}

// LeaseRequest is pull-based work acquisition: a node asks for up to Max
// scenarios (0 = the coordinator's default lease size).
type LeaseRequest struct {
	NodeID string `json:"node_id"`
	Max    int    `json:"max,omitempty"`
}

// LeaseResponse carries at most one lease; a nil Lease means no work is
// pending and the node should poll again after RetryMS.
type LeaseResponse struct {
	Lease   *Lease `json:"lease,omitempty"`
	RetryMS int64  `json:"retry_ms,omitempty"`
}

// Lease is one contiguous shard of a batch's scenario index space, assigned
// to one node until its deadline. Scenarios[i] is the expanded RunRequest
// for absolute index Start+i; shipping the expanded requests (rather than
// the sweep axes) makes the node's view of the work independent of its own
// expansion code.
type Lease struct {
	ID    string `json:"id"`
	JobID string `json:"job_id"`
	// TraceID is the request-trace identifier of the originating batch job;
	// the node stamps it into the simulation context and its lease events so
	// one sweep can be followed coordinator -> node -> simulator.
	TraceID string `json:"trace_id,omitempty"`
	// Tenant names the tenant the originating job was submitted by; the node
	// copies it into its flight events so node-side records attribute work
	// to tenants. Empty in open mode.
	Tenant string `json:"tenant,omitempty"`
	// Start (inclusive) and End (exclusive) bound the absolute scenario
	// indices this lease covers.
	Start int `json:"start"`
	End   int `json:"end"`
	// Scenarios holds the expanded requests for [Start, End).
	Scenarios []hetwire.RunRequest `json:"scenarios"`
	// TTLMS is the lease deadline: results uploaded after it may find their
	// indices re-dispatched (uploads stay idempotent either way).
	TTLMS int64 `json:"ttl_ms"`
}

// MaxCacheCheckKeys bounds one CacheCheckRequest: each key costs a locked
// cache lookup, and a node only ever needs one lease's worth of keys per
// check, so a huge batch is a protocol violation rather than a workload.
const MaxCacheCheckKeys = 4096

// CacheCheckRequest asks the coordinator's federated result-cache index
// which content-addressed keys are already known. Len(Keys) must not exceed
// MaxCacheCheckKeys; split larger checks.
type CacheCheckRequest struct {
	NodeID string   `json:"node_id"`
	Keys   []string `json:"keys"`
}

// CacheCheckResponse answers a cache check: Known[i] reports whether Keys[i]
// is resident in the coordinator's result cache. A node skips simulating
// known scenarios and uploads a skip marker instead; the coordinator fills
// those slots from its cache.
type CacheCheckResponse struct {
	Known []bool `json:"known"`
}

// Node-side lease phase names, carried as wire.SpanMS in upload headers.
const (
	SpanCacheCheck = "node_cache_check"
	SpanSim        = "node_sim"
	SpanUpload     = "node_upload"
)

// UploadResponse summarises how an upload landed. Uploads are idempotent:
// a result for an already-filled slot whose frame matches is counted as a
// duplicate and otherwise ignored, so a straggler whose lease was
// re-dispatched cannot disturb the batch.
type UploadResponse struct {
	// Accepted counts results that filled a previously-unfilled slot.
	Accepted int `json:"accepted"`
	// Duplicate counts results whose slot was already filled identically
	// (straggler after re-dispatch) — a no-op by design.
	Duplicate int `json:"duplicate"`
	// Requeued lists skip-marker indices the coordinator could not fill
	// because the cached entry was evicted between check and upload; they
	// return to the pending queue for a future lease.
	Requeued []int `json:"requeued,omitempty"`
	// JobDone reports that the job is no longer live (completed, cancelled,
	// or already collected); the node should drop any remaining state for it.
	JobDone bool `json:"job_done"`
}

// reqErr builds a hetwire.RequestError with a cluster reason code.
func reqErr(code, format string, args ...any) error {
	return &hetwire.RequestError{Code: code, Err: fmt.Errorf("cluster: "+format, args...)}
}
