package hetwire

import (
	"errors"

	"hetwire/internal/core"
)

// Machine-readable reason codes for admission-validation failures. The
// hetwired daemon returns the code alongside the human-readable message and
// counts rejections per code in /metrics, so operators can tell a client
// sending oversized budgets apart from one sending typo'd benchmark names
// without parsing error strings.
const (
	// ReasonBadRequest: the request shape is wrong (e.g. neither or both of
	// benchmark and benchmarks set, undecodable body).
	ReasonBadRequest = "bad_request"
	// ReasonBudgetExceeded: the instruction budget is over MaxInstructions.
	ReasonBudgetExceeded = "budget_exceeded"
	// ReasonTooManyPrograms: more programs than MaxBenchmarks.
	ReasonTooManyPrograms = "too_many_programs"
	// ReasonUnknownBenchmark: a benchmark or kernel name that does not exist.
	ReasonUnknownBenchmark = "unknown_benchmark"
	// ReasonBadConfig: the embedded configuration document, model override,
	// or cluster override does not resolve to a valid machine.
	ReasonBadConfig = "bad_config"
	// ReasonTopologyMismatch: a multiprogrammed request with more programs
	// than the resolved topology has clusters.
	ReasonTopologyMismatch = "topology_mismatch"
	// ReasonProbeUnsupported: a telemetry-probed execution was requested for
	// a request shape that cannot be probed (multiprogrammed runs).
	ReasonProbeUnsupported = "probe_unsupported"
	// ReasonBatchTooLarge: a batch request expands to more scenarios than
	// MaxSweepPoints.
	ReasonBatchTooLarge = "batch_too_large"
	// ReasonInvalidRequest is the fallback code for validation errors that
	// carry no specific reason.
	ReasonInvalidRequest = "invalid_request"
	// ReasonUnknownTenant: the request carried an API key that matches no
	// configured tenant.
	ReasonUnknownTenant = "unknown_tenant"
	// ReasonTenantRateLimited: the tenant's submission token bucket is
	// exhausted; Retry-After carries the tenant's own refill time.
	ReasonTenantRateLimited = "tenant_rate_limited"
	// ReasonTenantQueueShare: the tenant already occupies its configured
	// share of the job queue.
	ReasonTenantQueueShare = "tenant_queue_share"
	// ReasonLoadShed: the daemon is shedding bulk-lane work under sustained
	// queue saturation; interactive submissions are still admitted.
	ReasonLoadShed = "load_shed"
	// ReasonCalendarFault: the run failed because its timing could not stay
	// exact (core.CalendarError): the machine's live cycles outgrew a
	// calendar's largest ring.
	ReasonCalendarFault = "calendar_fault"
)

// RequestError is a validation failure with a machine-readable reason code.
// Error() returns the wrapped message unchanged, so existing callers that
// match on strings keep working; new callers switch on Code (or use
// ReasonCode, which handles arbitrary errors).
type RequestError struct {
	Code string
	Err  error
}

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// ReasonCode extracts the machine-readable reason from a validation or run
// error. A core.CalendarError is ReasonCalendarFault; other errors that are
// not RequestError (or carry an empty code) fold to ReasonInvalidRequest so
// metric label sets stay bounded.
func ReasonCode(err error) string {
	var re *RequestError
	if errors.As(err, &re) && re.Code != "" {
		return re.Code
	}
	var ce *core.CalendarError
	if errors.As(err, &ce) {
		return ReasonCalendarFault
	}
	return ReasonInvalidRequest
}
