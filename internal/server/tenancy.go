package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"hetwire"
	"hetwire/internal/obs/flight"
	"hetwire/internal/tenant"
)

// TenantHeader carries the submitting tenant's API key. Clients may instead
// send "Authorization: Bearer <key>" on the /v1 API routes; the explicit
// header wins when both are present (and is the only option on a cluster
// coordinator, where Authorization is claimed by the cluster token).
const TenantHeader = "X-Hetwire-Tenant"

// resolveTenant maps a request to its tenant. Open mode (no -tenants file)
// resolves everything to the anonymous tenant and ignores keys entirely —
// the pre-tenancy behaviour. Configured mode resolves an empty key to
// anonymous and rejects unknown keys with reason unknown_tenant.
func (s *Server) resolveTenant(r *http.Request) (*tenant.Tenant, error) {
	key := r.Header.Get(TenantHeader)
	if key == "" && s.clusterToken == "" {
		// Only consult Authorization when it cannot be the cluster secret.
		key, _ = strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	}
	tn, ok := s.tenants.Lookup(key)
	if !ok {
		return nil, &hetwire.RequestError{Code: hetwire.ReasonUnknownTenant,
			Err: fmt.Errorf("server: unknown tenant key")}
	}
	return tn, nil
}

// reject counts one bounced submission on both the global and the tenant's
// per-reason rejection counters.
func (s *Server) reject(tn *tenant.Tenant, reason string) {
	s.metrics.ObserveRejection(reason)
	ev := flight.Event{Kind: flight.KindReject, Reason: reason}
	if tn != nil {
		tn.CountRejection(reason)
		ev.Tenant = tn.Name()
	}
	s.flight.Record(ev)
}

// retryAfterFor picks the Retry-After for a 429: a tenant_rate_limited
// rejection backs off by the tenant's own token-bucket refill time (rounded
// up to whole seconds, the header's unit); everything else backs off by the
// global queue-drain estimate.
func (s *Server) retryAfterFor(tn *tenant.Tenant, reason string) time.Duration {
	if reason == hetwire.ReasonTenantRateLimited && tn != nil {
		ra := tn.RetryAfter(time.Now())
		secs := (ra + time.Second - 1) / time.Second
		if secs < 1 {
			secs = 1
		}
		return secs * time.Second
	}
	return s.retryAfter()
}

// Overload watchdog thresholds; see shedMonitor.
const (
	shedHighWater = 0.9
	shedLowWater  = 0.25
	shedWindow    = 2 * time.Second
)

// shedMonitor is the overload watchdog: sampling the queue every
// shedInterval, it trips load-shed mode after the depth has stayed at or
// above shedHighWater x QueueDepth for a full shedWindow, and clears it once
// the depth falls to shedLowWater x QueueDepth. While shedding, bulk-lane
// submissions are rejected with reason load_shed (429); the interactive
// lane stays open — the point of shedding is to keep latency-critical
// traffic live by dropping the traffic that can wait.
func (s *Server) shedMonitor() {
	ticker := time.NewTicker(s.opts.shedInterval)
	defer ticker.Stop()
	high := int(shedHighWater * float64(s.opts.QueueDepth))
	if high < 1 {
		high = 1
	}
	low := int(shedLowWater * float64(s.opts.QueueDepth))
	need := int(shedWindow / s.opts.shedInterval)
	if need < 1 {
		need = 1
	}
	hot := 0
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
		}
		depth := s.queue.depthNow()
		switch {
		case s.shed.Load():
			if depth <= low {
				s.shed.Store(false)
				hot = 0
				s.flight.Record(flight.Event{Kind: flight.KindShedRelease,
					Detail: fmt.Sprintf("depth=%d low_water=%d", depth, low)})
			}
		case depth >= high:
			hot++
			if hot >= need {
				s.shed.Store(true)
				s.metrics.loadShedTotal.Add(1)
				s.flight.Record(flight.Event{Kind: flight.KindShedEngage,
					Detail: fmt.Sprintf("depth=%d high_water=%d", depth, high)})
			}
		default:
			hot = 0
		}
	}
}

// Shedding reports whether load-shed mode is engaged (tests, debug).
func (s *Server) Shedding() bool { return s.shed.Load() }

// setShed forces load-shed mode (deterministic tests).
func (s *Server) setShed(on bool) {
	if on && !s.shed.Load() {
		s.metrics.loadShedTotal.Add(1)
		s.flight.Record(flight.Event{Kind: flight.KindShedEngage, Detail: "forced"})
	}
	if !on && s.shed.Load() {
		s.flight.Record(flight.Event{Kind: flight.KindShedRelease, Detail: "forced"})
	}
	s.shed.Store(on)
}
