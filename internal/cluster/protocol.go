// Package cluster is the distributed sweep fabric: a coordinator that
// shards the uncached part of a batch's scenario index space into bounded
// work leases and hands them to registered worker nodes over a small
// authenticated HTTP protocol, plus the node agent that pulls leases,
// simulates, and uploads content-addressed results.
//
// One encoding per message: control messages (register, heartbeat, lease,
// and the upload acknowledgement) are JSON; results travel only as
// hetwire-bin/v1 upload streams (wire.EncodeUpload) of TypeScenario frames,
// the same frames a local batch publishes, so the daemon's cache stores
// exactly the result bytes a node's simulation produced.
//
// Dispatch is push-on-arrival over a pull protocol: a lease request that
// finds nothing pending is held open (the daemon bounds the hold at 200
// ms) and answered as soon as indices enter the pending queue — on a submit,
// or when a lease ends with indices unresolved (expiry, node death, or a
// partial upload). A node asks again
// right after every answer, so queued work reaches an idle node at once
// rather than at its next poll.
//
// Determinism contract: the daemon validates and expands each batch once,
// at admission, and the coordinator takes that expansion as it is; every
// scenario result is addressed by its expansion index, and an upload must
// carry the request its index was leased for. A scenario's result frame is
// a pure function of its RunRequest (simulations are deterministic and the
// wire encoding is canonical), so the assembled batch stream is
// bit-identical regardless of node count, lease size, which node ran which
// range, or how lease expiry and re-dispatch interleaved. Duplicate uploads — a straggler finishing
// after its lease was re-dispatched — are no-ops by construction: the slot
// already holds the same bytes, and the coordinator compares the frames to
// prove it. Scenario errors are not content-addressed, so they are only
// trusted from the lease that still owns the slot; a straggler's stale
// error is dropped rather than allowed to override a healthy re-dispatch.
//
// Robustness contract: leases carry deadlines; an expired lease returns its
// unfinished indices to the pending queue for another node (straggler
// re-dispatch). Nodes that miss enough heartbeats are declared dead and
// their leases expire immediately. The coordinator keeps no result cache:
// the daemon answers cached scenarios at admission and submits only the
// misses, and stores each accepted upload's result frame, which Publish
// hands back, in the one cache that cluster and local work share.
package cluster

import (
	"fmt"

	"hetwire"
)

// ProtocolVersion is bumped on any incompatible change to the wire types or
// lease semantics; register rejects mismatched nodes. Version 2 made the
// hetwire-bin/v1 upload stream the only upload encoding. Version 3 made an
// idle lease request a held one and dropped the idle-poll hints from the
// register and lease responses: the coordinator, not the node, now paces an
// idle node. Version 4 answers cached scenarios at submit, so the remote
// cache check, skip markers, heartbeat events and unread fields are gone.
// Version 5 uploads each scenario as a TypeScenario frame carrying its
// request, checked against the leased slot; the 0x07 upload-result frame
// and its reserved cache-key slot are gone.
const ProtocolVersion = 5

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
// registration: the ConfigHash of the default machine plus the protocol
// version. Two builds agree exactly when their default configuration has
// the same fields and values — a cheap, content-addressed proxy for "same
// simulator semantics" that catches config-schema drift without a
// hand-maintained version number.
func CompatHash() string {
	return fmt.Sprintf("v%d/%s", ProtocolVersion, hetwire.ConfigHash(hetwire.DefaultConfig()))
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
}

// HeartbeatRequest is the periodic liveness check-in.
type HeartbeatRequest struct {
	NodeID string `json:"node_id"`
}

// HeartbeatResponse acknowledges a heartbeat. Known=false tells the node the
// coordinator no longer recognises it (restart, or it was declared dead);
// the node must re-register before asking for work.
type HeartbeatResponse struct {
	Known bool `json:"known"`
}

// LeaseRequest is pull-based work acquisition: a node asks for up to Max
// scenarios (0 = the coordinator's default lease size). When nothing is
// pending the coordinator holds the request open and answers it the moment
// work arrives, so a node never sleeps between asks.
type LeaseRequest struct {
	NodeID string `json:"node_id"`
	Max    int    `json:"max,omitempty"`
}

// LeaseResponse carries at most one lease; a nil Lease means no work became
// pending while the coordinator held the request, and the node should ask
// again at once.
type LeaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
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
}

// Node-side lease phase names, carried as wire.SpanMS in upload headers.
const (
	SpanSim    = "node_sim"
	SpanUpload = "node_upload"
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
}

// reqErr builds a hetwire.RequestError with a cluster reason code.
func reqErr(code, format string, args ...any) error {
	return &hetwire.RequestError{Code: code, Err: fmt.Errorf("cluster: "+format, args...)}
}
