package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"sync"
	"time"
)

// TraceHeader is the request-tracing header: clients mint an ID per logical
// operation and send it on every request for that operation; the daemon
// echoes it on the response, stamps it on flight events and job status, and
// carries it into the worker's job context (hetwire.WithTraceID). Requests
// without one get a daemon-minted ID so every job is traceable.
const TraceHeader = "X-Hetwire-Trace"

// maxTraceIDLen bounds accepted trace IDs; longer (or malformed) IDs are
// replaced rather than propagated, so flight events and labels stay bounded.
const maxTraceIDLen = 64

// validTraceID accepts hex-ish tokens: letters, digits, '.', '_', '-'.
func validTraceID(id string) bool {
	if id == "" || len(id) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// MintTraceID creates a fresh 16-hex-char trace identifier.
func MintTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; a fixed fallback keeps requests
		// flowing (IDs are a debugging aid, not a security boundary).
		return "trace-rand-failed"
	}
	return hex.EncodeToString(b[:])
}

// ensureTraceID extracts the client's trace ID from the request, minting one
// when absent or malformed, and echoes it on the response so the caller
// learns the ID its operation ran under either way.
func ensureTraceID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(TraceHeader)
	if !validTraceID(id) {
		id = MintTraceID()
	}
	w.Header().Set(TraceHeader, id)
	return id
}

// Span is one timed phase of a job's lifecycle, relative to submission.
// The daemon records queue_wait, cpu_wait, cache_lookup, sim_run, and
// result_encode; batch jobs merge the per-scenario phases into one span
// per name, so the span list stays bounded no matter how many scenarios a
// job expands to.
type Span struct {
	Name string `json:"name"`
	// StartMS is when the phase first began, in milliseconds after the job
	// was submitted.
	StartMS float64 `json:"start_ms"`
	// DurMS is the total time spent in the phase (summed across occurrences
	// for merged spans).
	DurMS float64 `json:"dur_ms"`
}

// Span names recorded by the daemon.
const (
	spanQueueWait    = "queue_wait"
	spanCPUWait      = "cpu_wait"
	spanCacheLookup  = "cache_lookup"
	spanSimRun       = "sim_run"
	spanResultEncode = "result_encode"
)

// spanRecorder accumulates a job's phase spans. Same-name observations merge
// (earliest start, summed duration); safe for concurrent use — the worker
// and a status poll may touch it simultaneously.
type spanRecorder struct {
	base time.Time

	mu    sync.Mutex
	spans []Span
}

func newSpanRecorder(base time.Time) *spanRecorder {
	return &spanRecorder{base: base}
}

// observe folds one phase occurrence into the recorder.
func (sr *spanRecorder) observe(name string, start time.Time, d time.Duration) {
	if sr == nil {
		return
	}
	startMS := float64(start.Sub(sr.base)) / float64(time.Millisecond)
	durMS := float64(d) / float64(time.Millisecond)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for i := range sr.spans {
		if sr.spans[i].Name == name {
			if startMS < sr.spans[i].StartMS {
				sr.spans[i].StartMS = startMS
			}
			sr.spans[i].DurMS += durMS
			return
		}
	}
	sr.spans = append(sr.spans, Span{Name: name, StartMS: startMS, DurMS: durMS})
}

// snapshot copies the spans in recording order.
func (sr *spanRecorder) snapshot() []Span {
	if sr == nil {
		return nil
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if len(sr.spans) == 0 {
		return nil
	}
	out := make([]Span, len(sr.spans))
	copy(out, sr.spans)
	return out
}

// NormalizeRoute folds a raw request into a bounded route label: the query
// string is stripped, job IDs under /v1/jobs/ collapse to the {id} pattern,
// and anything outside the served API folds to "other" — so the per-route
// metric label set cannot grow with traffic.
func NormalizeRoute(method, path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok && rest != "" {
		// The streaming sub-resource is its own served route and must not fold
		// into the poll endpoint — their latency profiles are nothing alike.
		if strings.HasSuffix(rest, "/stream") && !strings.Contains(strings.TrimSuffix(rest, "/stream"), "/") {
			return method + " /v1/jobs/{id}/stream"
		}
		return method + " /v1/jobs/{id}"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/cluster/"); ok {
		switch rest {
		case "register", "heartbeat", "lease", "upload", "nodes":
			return method + " /v1/cluster/" + rest
		}
		return method + " other"
	}
	switch path {
	case "/v1/run", "/v1/jobs", "/v1/catalog", "/healthz", "/metrics",
		"/v1/debug/flight", "/v1/tenants/usage":
		return method + " " + path
	}
	return method + " other"
}
