// Package faultinject is a deterministic, seeded fault-injection harness for
// the hetwired serving layer. An Injector is configured with a per-point
// firing rate (plus an optional cap on total firings) and consulted at
// well-defined points in the real server: before a job executes (worker
// panic, artificial slowness, spurious context cancellation) and after a
// result is cached (stored-entry corruption). Decisions are pure functions
// of (seed, point, decision index), so a chaos test that replays the same
// request sequence observes the same faults — failures found under injection
// reproduce.
//
// Tests arm injection through server.Options.Faults with a spec parsed by
// Parse; the spec syntax is
//
//	seed=42,panic=0.05,slow=0.2,slowms=50,cancel=0.1,corrupt=0.1,panic.max=3
//
// i.e. comma-separated key=value pairs where each point name takes a rate in
// [0,1], point.max caps how often that point may fire, slowms sets the
// injected delay, and seed fixes the decision sequence. An empty spec (or a
// nil *Injector) injects nothing: every Should call on a nil injector is
// false, which is what lets the production hot path keep a single nil check.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hetwire/internal/xrand"
)

// Point names one instrumented site in the server.
type Point string

// The instrumented sites.
const (
	// WorkerPanic fires a panic inside the worker while it executes a job,
	// exercising panic containment and worker respawn.
	WorkerPanic Point = "panic"
	// JobSlow delays a job by SlowDuration before it simulates (the delay is
	// context-aware, so deadlines and cancellation still apply).
	JobSlow Point = "slow"
	// CtxCancel spuriously cancels a job's context as the worker claims it.
	CtxCancel Point = "cancel"
	// CacheCorrupt flips a byte of a freshly stored result-cache entry,
	// exercising the cache's checksum self-healing.
	CacheCorrupt Point = "corrupt"
)

// Points lists every instrumented site (spec validation and tests).
func Points() []Point { return []Point{WorkerPanic, JobSlow, CtxCancel, CacheCorrupt} }

// DefaultSlow is the injected job delay when the spec sets a slow rate but
// no slowms.
const DefaultSlow = 25 * time.Millisecond

// Config is the parsed injection plan.
type Config struct {
	// Seed fixes the decision sequence; two injectors with equal Config make
	// identical decisions.
	Seed uint64
	// Rates maps each point to its firing probability in [0,1].
	Rates map[Point]float64
	// MaxFires optionally caps the number of firings per point (0 = no cap).
	MaxFires map[Point]uint64
	// Slow is the delay injected by JobSlow (DefaultSlow if 0).
	Slow time.Duration
}

// Injector makes deterministic fault decisions. The zero value injects
// nothing; so does a nil *Injector — all methods are nil-receiver safe.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	seen  map[Point]uint64 // decisions asked per point
	fired map[Point]uint64 // decisions answered true per point
}

// New builds an injector from a config. Rates outside [0,1] are an error.
func New(cfg Config) (*Injector, error) {
	for p, r := range cfg.Rates {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("faultinject: rate for %q must be in [0,1], got %g", p, r)
		}
		if !knownPoint(p) {
			return nil, fmt.Errorf("faultinject: unknown point %q (known: %v)", p, Points())
		}
	}
	if cfg.Slow == 0 {
		cfg.Slow = DefaultSlow
	}
	return &Injector{
		cfg:   cfg,
		seen:  make(map[Point]uint64),
		fired: make(map[Point]uint64),
	}, nil
}

func knownPoint(p Point) bool {
	for _, k := range Points() {
		if p == k {
			return true
		}
	}
	return false
}

// Parse builds an injector from a spec string (see the package comment for
// the syntax). An empty spec yields nil: no injection.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := Config{
		Rates:    make(map[Point]float64),
		MaxFires: make(map[Point]uint64),
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed %q: %v", val, err)
			}
			cfg.Seed = s
		case key == "slowms":
			ms, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("faultinject: slowms %q: %v", val, err)
			}
			cfg.Slow = time.Duration(ms) * time.Millisecond
		case strings.HasSuffix(key, ".max"):
			p := Point(strings.TrimSuffix(key, ".max"))
			if !knownPoint(p) {
				return nil, fmt.Errorf("faultinject: unknown point %q in %q", p, field)
			}
			m, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s %q: %v", key, val, err)
			}
			cfg.MaxFires[p] = m
		default:
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: rate %q for %q: %v", val, key, err)
			}
			cfg.Rates[Point(key)] = r
		}
	}
	return New(cfg)
}

// Should reports whether point p's fault fires for this decision. The k-th
// decision at a point is a pure function of (seed, point, k): the injector
// hashes them to a uniform value and compares against the configured rate.
// A nil injector, an unconfigured point, and an exhausted MaxFires cap all
// answer false.
func (in *Injector) Should(p Point) bool {
	if in == nil {
		return false
	}
	rate, ok := in.cfg.Rates[p]
	if !ok || rate == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	k := in.seen[p]
	in.seen[p] = k + 1
	if max := in.cfg.MaxFires[p]; max > 0 && in.fired[p] >= max {
		return false
	}
	// Map (seed, point, k) to a uniform value in [0,1): pointHash
	// decorrelates the per-point streams, xrand.Mix supplies the avalanche.
	u := xrand.Mix(in.cfg.Seed^pointHash(p), k)
	if float64(u>>11)/(1<<53) >= rate {
		return false
	}
	in.fired[p]++
	return true
}

// pointHash is FNV-1a over the point name, decorrelating per-point streams
// that share a seed.
func pointHash(p Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// SlowDuration returns the configured JobSlow delay (0 on a nil injector).
func (in *Injector) SlowDuration() time.Duration {
	if in == nil {
		return 0
	}
	return in.cfg.Slow
}

// Fired returns how many times point p has fired (test observability).
func (in *Injector) Fired(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// Decisions returns how many decisions have been asked at point p.
func (in *Injector) Decisions(p Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen[p]
}

// String renders the active plan for startup logs.
func (in *Injector) String() string {
	if in == nil {
		return "faults: none"
	}
	points := make([]string, 0, len(in.cfg.Rates))
	for p := range in.cfg.Rates {
		points = append(points, string(p))
	}
	sort.Strings(points)
	var b strings.Builder
	fmt.Fprintf(&b, "faults: seed=%d", in.cfg.Seed)
	for _, p := range points {
		fmt.Fprintf(&b, " %s=%g", p, in.cfg.Rates[Point(p)])
		if m := in.cfg.MaxFires[Point(p)]; m > 0 {
			fmt.Fprintf(&b, "(max %d)", m)
		}
	}
	if _, ok := in.cfg.Rates[JobSlow]; ok {
		fmt.Fprintf(&b, " slow=%s", in.cfg.Slow)
	}
	return b.String()
}
