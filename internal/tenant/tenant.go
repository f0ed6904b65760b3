// Package tenant implements multi-tenant identity and resource accounting
// for the hetwired daemon: a registry of API-keyed tenants loaded from a
// JSON config file, per-tenant token-bucket rate limits, and the counters
// (sim-CPU seconds, queue slots, in-flight jobs, cache bytes) that the
// weighted-fair scheduler and the /metrics exposition read.
//
// The daemon without a tenants file runs in open mode: every request maps
// to the built-in anonymous tenant with no limits, which preserves the
// pre-tenancy behaviour exactly. With a tenants file, requests carrying a
// known API key (X-Hetwire-Tenant or Authorization: Bearer) run as that
// tenant; requests with no key still run as anonymous (optionally limited
// via the "anonymous" config block); requests with an unknown key are
// rejected.
package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AnonymousName is the reserved identity for requests carrying no API key.
const AnonymousName = "anonymous"

// Bounds on a tenants config. The tenant count cap also bounds the
// hetwired_tenant_* metric label sets and the scheduler's per-tenant state.
const (
	MaxTenants = 256
	MaxNameLen = 32
	MaxKeyLen  = 128
	MaxWeight  = 1000
	MaxBurst   = 1_000_000
	// MaxRatePerSec bounds the token-bucket refill rate so refill arithmetic
	// stays well-conditioned.
	MaxRatePerSec = 1e6
	// MaxSLOMS bounds a latency objective to one hour; larger objectives are
	// config typos, not serving goals.
	MaxSLOMS = 3_600_000
)

// Spec is one tenant's declared identity and resource policy, as written in
// the -tenants config file.
type Spec struct {
	// Name labels the tenant in job status, flight events, leases, and metrics.
	// Lowercase [a-z0-9._-], at most MaxNameLen bytes. "anonymous" and
	// "other" are reserved.
	Name string `json:"name"`
	// Key is the API key presented via X-Hetwire-Tenant (or Authorization:
	// Bearer on non-cluster routes). Required for named tenants; must be
	// empty on the anonymous block.
	Key string `json:"key,omitempty"`
	// Weight is the tenant's share of simulation CPU under the weighted-fair
	// scheduler (default 1): a weight-3 tenant saturating the daemon gets 3x
	// the sim-CPU of a saturating weight-1 tenant.
	Weight int `json:"weight,omitempty"`
	// RatePerSec is the tenant's submission token-bucket refill rate; zero
	// means unlimited. Rejections carry reason tenant_rate_limited and a
	// Retry-After derived from this bucket's refill time.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (default: ceil(RatePerSec), minimum 1).
	Burst int `json:"burst,omitempty"`
	// QueueShare caps the fraction of the global queue depth this tenant may
	// occupy, (0,1]; zero or 1 means no per-tenant cap. Rejections carry
	// reason tenant_queue_share.
	QueueShare float64 `json:"queue_share,omitempty"`
	// SLOMS is the tenant's end-to-end latency objective in milliseconds:
	// a completed request is "good" when its wall clock is at or under it.
	// Zero means no SLO — the hetwired_slo_* counters and burn-rate gauges
	// are not emitted for this tenant.
	SLOMS float64 `json:"slo_ms,omitempty"`
	// SLOTargetPct is the fraction of requests that must be good, in percent
	// (default 99 when SLOMS is set). The burn-rate gauges divide the
	// observed bad fraction by the implied error budget (1 - target), so a
	// burn rate of 1.0 means the budget is being consumed exactly on
	// schedule and anything higher is an incident signal.
	SLOTargetPct float64 `json:"slo_target_pct,omitempty"`
}

// Config is the -tenants file: named tenants plus an optional policy block
// for the anonymous (keyless) tenant.
type Config struct {
	Tenants []Spec `json:"tenants"`
	// Anonymous, when present, applies limits to keyless requests. Absent,
	// anonymous requests stay unlimited (weight 1).
	Anonymous *Spec `json:"anonymous,omitempty"`
}

// ParseConfig decodes and validates a tenants file. Unknown fields and
// trailing garbage are rejected so a typo'd policy fails loudly at startup
// instead of silently not limiting anyone.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("tenant: decoding config: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("tenant: trailing data after config document")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the config's bounds and uniqueness invariants.
func (c *Config) Validate() error {
	if len(c.Tenants) > MaxTenants {
		return fmt.Errorf("tenant: %d tenants exceeds the limit of %d", len(c.Tenants), MaxTenants)
	}
	names := make(map[string]bool, len(c.Tenants))
	keys := make(map[string]bool, len(c.Tenants))
	for i := range c.Tenants {
		sp := &c.Tenants[i]
		if err := sp.validate(false); err != nil {
			return fmt.Errorf("tenant: tenants[%d]: %w", i, err)
		}
		if names[sp.Name] {
			return fmt.Errorf("tenant: duplicate tenant name %q", sp.Name)
		}
		if keys[sp.Key] {
			return fmt.Errorf("tenant: duplicate API key (tenant %q)", sp.Name)
		}
		names[sp.Name] = true
		keys[sp.Key] = true
	}
	if c.Anonymous != nil {
		if err := c.Anonymous.validate(true); err != nil {
			return fmt.Errorf("tenant: anonymous: %w", err)
		}
	}
	return nil
}

// Canonical renders the validated config in its canonical form: stable field
// order, defaults left implicit. Parsing a canonical document and rendering
// it again is byte-identical (the fuzz target's round-trip property).
func (c *Config) Canonical() ([]byte, error) {
	return json.Marshal(c)
}

func (s *Spec) validate(anonymous bool) error {
	if anonymous {
		if s.Name != "" && s.Name != AnonymousName {
			return fmt.Errorf("name must be empty or %q, got %q", AnonymousName, s.Name)
		}
		if s.Key != "" {
			return errors.New("the anonymous tenant cannot carry an API key")
		}
	} else {
		if !validName(s.Name) {
			return fmt.Errorf("invalid name %q (want 1..%d bytes of [a-z0-9._-])", s.Name, MaxNameLen)
		}
		if s.Name == AnonymousName || s.Name == "other" {
			return fmt.Errorf("name %q is reserved", s.Name)
		}
		if !validKey(s.Key) {
			return fmt.Errorf("tenant %q: invalid key (want 1..%d printable non-space ASCII bytes)", s.Name, MaxKeyLen)
		}
	}
	if s.Weight < 0 || s.Weight > MaxWeight {
		return fmt.Errorf("weight %d out of range [0,%d]", s.Weight, MaxWeight)
	}
	if s.RatePerSec < 0 || s.RatePerSec > MaxRatePerSec || math.IsNaN(s.RatePerSec) {
		return fmt.Errorf("rate_per_sec %v out of range [0,%v]", s.RatePerSec, float64(MaxRatePerSec))
	}
	if s.Burst < 0 || s.Burst > MaxBurst {
		return fmt.Errorf("burst %d out of range [0,%d]", s.Burst, MaxBurst)
	}
	if s.Burst > 0 && s.RatePerSec <= 0 {
		return errors.New("burst without rate_per_sec has no effect; drop it or set a rate")
	}
	if s.QueueShare < 0 || s.QueueShare > 1 || math.IsNaN(s.QueueShare) {
		return fmt.Errorf("queue_share %v out of range [0,1]", s.QueueShare)
	}
	if s.SLOMS < 0 || s.SLOMS > MaxSLOMS || math.IsNaN(s.SLOMS) {
		return fmt.Errorf("slo_ms %v out of range [0,%d]", s.SLOMS, MaxSLOMS)
	}
	if s.SLOTargetPct < 0 || s.SLOTargetPct >= 100 || math.IsNaN(s.SLOTargetPct) {
		return fmt.Errorf("slo_target_pct %v out of range [0,100)", s.SLOTargetPct)
	}
	if s.SLOTargetPct > 0 && s.SLOMS <= 0 {
		return errors.New("slo_target_pct without slo_ms has no effect; drop it or set an objective")
	}
	return nil
}

func validName(name string) bool {
	if name == "" || len(name) > MaxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func validKey(key string) bool {
	if key == "" || len(key) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] > '~' {
			return false
		}
	}
	return true
}

// Tenant is the runtime state behind one Spec: the token bucket gating
// submissions and the accounting counters the scheduler and /metrics read.
// All methods are safe for concurrent use.
type Tenant struct {
	spec Spec

	// Token bucket (RatePerSec > 0 only). tokens is the fractional fill at
	// time last; refill happens lazily on each Allow/RetryAfter call.
	bucketMu sync.Mutex
	tokens   float64
	last     time.Time

	// simCPUNanos accumulates measured simulation CPU charged to the tenant's
	// completed jobs; it is both the fairness test's observable and the
	// numerator of the scheduler's virtual time.
	simCPUNanos atomic.Int64
	queued      atomic.Int64
	inFlight    atomic.Int64
	// cacheBytes counts result-cache bytes attributed on insert: the tenant
	// whose job filled the entry pays for it (later cross-tenant hits ride
	// free — deterministic results are shared by design).
	cacheBytes atomic.Int64

	submitted atomic.Uint64
	done      atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64

	rejMu    sync.Mutex
	rejected map[string]uint64
}

func newTenant(spec Spec) *Tenant {
	t := &Tenant{spec: spec, rejected: make(map[string]uint64)}
	t.tokens = t.burst()
	return t
}

// Name returns the tenant's identity label.
func (t *Tenant) Name() string { return t.spec.Name }

// Weight returns the scheduling weight (minimum 1).
func (t *Tenant) Weight() int {
	if t.spec.Weight <= 0 {
		return 1
	}
	return t.spec.Weight
}

// SLO returns the tenant's latency objective in milliseconds and its target
// percentage, defaulting the target to 99 when only slo_ms is set. Both are
// zero when the tenant has no SLO configured.
func (t *Tenant) SLO() (ms, targetPct float64) {
	if t.spec.SLOMS <= 0 {
		return 0, 0
	}
	target := t.spec.SLOTargetPct
	if target <= 0 {
		target = 99
	}
	return t.spec.SLOMS, target
}

// QueueShareCap resolves the tenant's queue-slot cap against the global
// queue depth; 0 means uncapped.
func (t *Tenant) QueueShareCap(queueDepth int) int {
	s := t.spec.QueueShare
	if s <= 0 || s >= 1 {
		return 0
	}
	slots := int(math.Ceil(s * float64(queueDepth)))
	if slots < 1 {
		slots = 1
	}
	return slots
}

func (t *Tenant) burst() float64 {
	if t.spec.Burst > 0 {
		return float64(t.spec.Burst)
	}
	if t.spec.RatePerSec >= 1 {
		return math.Ceil(t.spec.RatePerSec)
	}
	return 1
}

func (t *Tenant) refillLocked(now time.Time) {
	if t.last.IsZero() {
		t.last = now
		return
	}
	if d := now.Sub(t.last); d > 0 {
		t.tokens = math.Min(t.burst(), t.tokens+d.Seconds()*t.spec.RatePerSec)
	}
	t.last = now
}

// Allow consumes one submission token, reporting false when the tenant's
// rate limit is exhausted. Unlimited tenants (RatePerSec 0) always pass.
func (t *Tenant) Allow(now time.Time) bool {
	if t.spec.RatePerSec <= 0 {
		return true
	}
	t.bucketMu.Lock()
	defer t.bucketMu.Unlock()
	t.refillLocked(now)
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// RetryAfter estimates when the bucket next holds a whole token — the
// per-tenant Retry-After on a tenant_rate_limited rejection. Zero for
// unlimited tenants.
func (t *Tenant) RetryAfter(now time.Time) time.Duration {
	if t.spec.RatePerSec <= 0 {
		return 0
	}
	t.bucketMu.Lock()
	defer t.bucketMu.Unlock()
	t.refillLocked(now)
	if t.tokens >= 1 {
		return 0
	}
	return time.Duration((1 - t.tokens) / t.spec.RatePerSec * float64(time.Second))
}

// Accounting mutators, called by the daemon at admission, dispatch, and
// completion.

func (t *Tenant) AddSimCPU(d time.Duration) { t.simCPUNanos.Add(int64(d)) }
func (t *Tenant) AddCacheBytes(n int64)     { t.cacheBytes.Add(n) }
func (t *Tenant) IncQueued()                { t.queued.Add(1) }
func (t *Tenant) DecQueued()                { t.queued.Add(-1) }
func (t *Tenant) IncInFlight()              { t.inFlight.Add(1) }
func (t *Tenant) DecInFlight()              { t.inFlight.Add(-1) }
func (t *Tenant) CountSubmitted()           { t.submitted.Add(1) }

// CountTerminal records one job reaching the given terminal state
// ("done", "failed", or "cancelled").
func (t *Tenant) CountTerminal(state string) {
	switch state {
	case "done":
		t.done.Add(1)
	case "failed":
		t.failed.Add(1)
	case "cancelled":
		t.cancelled.Add(1)
	}
}

// CountRejection records one admission rejection by reason code. The label
// set is bounded by the daemon's reason-code set, not by client input.
func (t *Tenant) CountRejection(reason string) {
	t.rejMu.Lock()
	defer t.rejMu.Unlock()
	t.rejected[reason]++
}

// SimCPU reports the total simulation CPU charged to this tenant.
func (t *Tenant) SimCPU() time.Duration {
	return time.Duration(t.simCPUNanos.Load())
}

// Snapshot is a point-in-time copy of one tenant's counters for /metrics
// and the /v1/tenants/usage report.
type Snapshot struct {
	Name       string
	Weight     int
	SLOMS      float64
	SLOTarget  float64
	SimCPU     time.Duration
	Queued     int64
	InFlight   int64
	CacheBytes int64
	Submitted  uint64
	Done       uint64
	Failed     uint64
	Cancelled  uint64
	Rejected   map[string]uint64
}

// Snapshot copies the tenant's counters.
func (t *Tenant) Snapshot() Snapshot {
	sloMS, sloTarget := t.SLO()
	sn := Snapshot{
		Name:       t.Name(),
		Weight:     t.Weight(),
		SLOMS:      sloMS,
		SLOTarget:  sloTarget,
		SimCPU:     t.SimCPU(),
		Queued:     t.queued.Load(),
		InFlight:   t.inFlight.Load(),
		CacheBytes: t.cacheBytes.Load(),
		Submitted:  t.submitted.Load(),
		Done:       t.done.Load(),
		Failed:     t.failed.Load(),
		Cancelled:  t.cancelled.Load(),
	}
	t.rejMu.Lock()
	if len(t.rejected) > 0 {
		sn.Rejected = make(map[string]uint64, len(t.rejected))
		for k, v := range t.rejected {
			sn.Rejected[k] = v
		}
	}
	t.rejMu.Unlock()
	return sn
}

// Registry resolves API keys to runtime tenants. Built once at startup;
// lookups are lock-free reads of immutable maps.
type Registry struct {
	open  bool
	byKey map[string]*Tenant
	anon  *Tenant
	all   []*Tenant // name-sorted, anonymous included
}

// NewRegistry builds the runtime registry. A nil config is open mode: only
// the unlimited anonymous tenant exists and API keys are ignored.
func NewRegistry(cfg *Config) *Registry {
	r := &Registry{open: cfg == nil, byKey: make(map[string]*Tenant)}
	anonSpec := Spec{Name: AnonymousName}
	if cfg != nil && cfg.Anonymous != nil {
		anonSpec = *cfg.Anonymous
		anonSpec.Name = AnonymousName
		anonSpec.Key = ""
	}
	r.anon = newTenant(anonSpec)
	r.all = append(r.all, r.anon)
	if cfg != nil {
		for i := range cfg.Tenants {
			t := newTenant(cfg.Tenants[i])
			r.byKey[cfg.Tenants[i].Key] = t
			r.all = append(r.all, t)
		}
	}
	sort.Slice(r.all, func(i, j int) bool { return r.all[i].Name() < r.all[j].Name() })
	return r
}

// Open reports whether the registry runs in open (keyless) mode.
func (r *Registry) Open() bool { return r.open }

// Anonymous returns the built-in keyless tenant.
func (r *Registry) Anonymous() *Tenant { return r.anon }

// Lookup resolves an API key. An empty key is the anonymous tenant; in open
// mode every key resolves to anonymous (keys are ignored, not rejected).
func (r *Registry) Lookup(key string) (*Tenant, bool) {
	if key == "" || r.open {
		return r.anon, true
	}
	t, ok := r.byKey[key]
	return t, ok
}

// All returns every tenant in name order (metrics rendering).
func (r *Registry) All() []*Tenant { return r.all }

// Snapshots returns a name-ordered counter snapshot of every tenant.
func (r *Registry) Snapshots() []Snapshot {
	out := make([]Snapshot, len(r.all))
	for i, t := range r.all {
		out[i] = t.Snapshot()
	}
	return out
}

type ctxKey struct{}

// NewContext stamps the tenant into ctx so code deep in the execution path
// (the cache fill, cluster upload accounting) can attribute resource use
// without threading a tenant parameter through every layer.
func NewContext(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tenant stamped by NewContext, or nil.
func FromContext(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}
