// Package flight is the hetwired flight recorder: an always-on, bounded,
// lock-light ring buffer of typed operational events (admission verdicts,
// scheduler dispatch decisions, lease lifecycle, cache outcomes, load-shed
// transitions). It answers "what did the daemon just decide, in order?"
// after an incident — the ring holds the most recent window and is dumped
// on demand (GET /v1/debug/flight) or automatically on worker panic and
// watchdog stall.
//
// Contract, mirroring the package obs probes:
//
//   - A nil *Recorder is fully inert: every method is a single pointer
//     compare and return, so the disabled path costs nothing measurable.
//   - Events carry a monotonic sequence number and NO wall-clock state.
//     Ordering is seq order, so two identical runs dump identically and
//     dumps are golden-testable. Measured quantities (virtual time,
//     durations) are the only nondeterministic fields, and canonical dumps
//     elide them (see Canonical).
//   - Recording never blocks on I/O and never allocates beyond the ring:
//     one atomic increment claims a slot, one per-slot mutex guards the
//     write. Contention is spread across the ring, not funneled through a
//     global lock.
package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Schema identifies the dump format; the header line of every JSONL dump
// carries it, and readers reject anything else.
const Schema = "hetwire-flight/v1"

// DefaultEvents is the ring capacity when the caller does not choose one.
// 4096 events × ~200 B/event bounds the recorder near 1 MiB.
const DefaultEvents = 4096

// MaxEvents caps the ring so a misconfigured flag cannot allocate an
// unbounded buffer at startup.
const MaxEvents = 1 << 20

// Event kinds recorded by the daemon, the coordinator, and node agents.
const (
	// KindAdmit: a job passed admission (trace, tenant, job, lane).
	KindAdmit = "admit"
	// KindReject: admission refused; Reason carries the machine-readable
	// rejection code surfaced to the client.
	KindReject = "reject"
	// KindDispatch: the fair scheduler handed a job to a worker; Tenant,
	// Lane, and VTime record the decision inputs.
	KindDispatch = "dispatch"
	// KindLeaseGrant / KindLeaseExpire / KindLeaseUpload: coordinator-side
	// work-lease lifecycle. Expire implies the range re-dispatches.
	KindLeaseGrant  = "lease_grant"
	KindLeaseExpire = "lease_expire"
	KindLeaseUpload = "lease_upload"
	// KindLeaseRun: node-side — the agent started executing a lease.
	KindLeaseRun = "lease_run"
	// KindLeaseDone: node-side — how the lease ended. Detail carries the
	// simulated, skipped, and failed scenario counts; Reason is "aborted"
	// when the node gave the lease up before a successful upload.
	KindLeaseDone = "lease_done"
	// KindSpan: node-side span summary attached to heartbeat traffic
	// (Detail names the phase, DurMS its measured cost).
	KindSpan = "span"
	// KindCacheHit / KindCacheMiss / KindCacheCorrupt: result-cache
	// outcomes. Corrupt means a checksum-failed entry was dropped.
	KindCacheHit     = "cache_hit"
	KindCacheMiss    = "cache_miss"
	KindCacheCorrupt = "cache_corrupt"
	// KindWireDecode / KindZeroDecode: binary result path — a payload
	// decode happened, or a cache hit was served without one.
	KindWireDecode = "wire_decode"
	KindZeroDecode = "zero_decode"
	// KindShedEngage / KindShedRelease: load-shed watchdog transitions.
	KindShedEngage  = "shed_engage"
	KindShedRelease = "shed_release"
	// KindPanic: a worker panicked; the recorder is auto-dumped.
	KindPanic = "panic"
	// KindStall: the forward-progress watchdog aborted a run.
	KindStall = "stall"
)

// Event is one recorded decision. All fields except Seq and Kind are
// optional; unset fields are elided from JSON so dumps stay compact and
// canonical. VTime and DurMS are the only fields carrying measured (hence
// nondeterministic) quantities — Canonical clears them.
type Event struct {
	Seq    uint64  `json:"seq"`
	Kind   string  `json:"kind"`
	Trace  string  `json:"trace,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
	Job    string  `json:"job,omitempty"`
	Lane   string  `json:"lane,omitempty"`
	Reason string  `json:"reason,omitempty"`
	Lease  string  `json:"lease,omitempty"`
	Node   string  `json:"node,omitempty"`
	VTime  float64 `json:"vtime,omitempty"`
	DurMS  float64 `json:"dur_ms,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// slot is one ring position. The per-slot mutex serializes the rare case of
// two writers lapping onto the same position; the seq guard keeps a slow
// writer from clobbering a newer event.
type slot struct {
	mu  sync.Mutex
	seq uint64 // 0 = empty; otherwise the 1-based seq stored here
	ev  Event
}

// sinkState is an attached streaming sink; its own mutex serializes line
// writes without touching the ring's hot path when no sink is set.
type sinkState struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// Recorder is the bounded event ring. Safe for concurrent use; the zero
// value is not usable — construct with New.
type Recorder struct {
	mask  uint64
	seq   atomic.Uint64
	slots []slot
	sink  atomic.Pointer[sinkState]
}

// New returns a recorder holding the most recent `capacity` events
// (rounded up to a power of two; 0 or negative selects DefaultEvents).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	if capacity > MaxEvents {
		capacity = MaxEvents
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Recorder{mask: uint64(size - 1), slots: make([]slot, size)}
}

// SetSink attaches an optional streaming sink: every recorded event is also
// appended to w as one JSONL line (after the schema header line). Used by
// node agents' -flight-log.
func (r *Recorder) SetSink(w io.Writer, source string) error {
	if r == nil || w == nil {
		return nil
	}
	st := &sinkState{enc: json.NewEncoder(w)}
	if err := st.enc.Encode(Header{Schema: Schema, Source: source}); err != nil {
		return err
	}
	r.sink.Store(st)
	return nil
}

// Record stores ev in the ring, stamping its sequence number. A nil
// recorder is one pointer compare.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	ev.Seq = seq
	s := &r.slots[(seq-1)&r.mask]
	s.mu.Lock()
	if seq > s.seq {
		s.seq = seq
		s.ev = ev
	}
	s.mu.Unlock()
	if st := r.sink.Load(); st != nil {
		st.mu.Lock()
		st.enc.Encode(ev) // best-effort: the ring is the source of truth
		st.mu.Unlock()
	}
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Seq returns the sequence number of the most recently recorded event
// (0 before any event).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Snapshot copies the ring's surviving events in sequence order.
func (r *Recorder) Snapshot() []Event {
	return r.Since(0)
}

// Since copies the surviving events with Seq > after, in sequence order.
// Node agents use it to drain incrementally into heartbeats.
func (r *Recorder) Since(after uint64) []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq > after {
			out = append(out, s.ev)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Canonical returns a copy of events with the measured (nondeterministic)
// fields cleared. Two identical runs produce byte-identical canonical
// dumps; full dumps differ only in VTime/DurMS (DESIGN §12).
func Canonical(events []Event) []Event {
	out := make([]Event, len(events))
	for i, ev := range events {
		ev.VTime = 0
		ev.DurMS = 0
		out[i] = ev
	}
	return out
}

// Header is the first JSONL line of a dump: the schema plus an optional
// source label naming the process that recorded it (coordinator address,
// node name) so merged cluster timelines can attribute events.
type Header struct {
	Schema string `json:"schema"`
	Source string `json:"source,omitempty"`
}

// WriteDump writes a header line plus one JSONL line per event. Events are
// written in the order given (callers pass Snapshot output, already
// seq-ordered), so identical event sequences produce identical bytes.
func WriteDump(w io.Writer, source string, events []Event) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(Header{Schema: Schema, Source: source}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// ReadDump parses a JSONL flight dump: a Schema header line followed by
// events. Blank lines are skipped; any other schema is rejected.
func ReadDump(r io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var hdr Header
	var events []Event
	seenHeader := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !seenHeader {
			if err := json.Unmarshal(line, &hdr); err != nil {
				return Header{}, nil, fmt.Errorf("flight: parsing dump header: %w", err)
			}
			if hdr.Schema != Schema {
				return Header{}, nil, fmt.Errorf("flight: unsupported dump schema %q (want %q)", hdr.Schema, Schema)
			}
			seenHeader = true
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return Header{}, nil, fmt.Errorf("flight: parsing event line: %w", err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, err
	}
	if !seenHeader {
		return Header{}, nil, fmt.Errorf("flight: empty dump (no %s header)", Schema)
	}
	return hdr, events, nil
}
