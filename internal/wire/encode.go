package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"hetwire"
	"hetwire/internal/wires"
)

// enc is an append-only payload builder. Errors are sticky: the first
// non-canonical value (negative int, oversized index) poisons the build and
// surfaces when the frame is sealed.
type enc struct {
	b   []byte
	err error
}

func (e *enc) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// intv encodes a non-negative Go int as u64; the structs never hold
// negative values, so a negative here is a bug, not a value to represent.
func (e *enc) intv(v int) {
	if v < 0 {
		e.fail("cannot encode negative int %d", v)
		return
	}
	e.u64(uint64(v))
}

func (e *enc) str(s string) {
	if len(s) > MaxPayload {
		e.fail("string of %d bytes exceeds frame limit", len(s))
		return
	}
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) blob(b []byte) {
	if len(b) > MaxPayload {
		e.fail("blob of %d bytes exceeds frame limit", len(b))
		return
	}
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
}

// strs encodes a []string with a presence byte: nil and non-nil-empty are
// distinct, mirroring encoding/json (null vs []) so the decoded struct
// JSON-marshals — and therefore ResultHash-es — identically to the original.
func (e *enc) strs(ss []string) {
	if ss == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *enc) ints(vs []int) {
	if vs == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.intv(v)
	}
}

// seal closes the payload and wraps it into a frame.
func (e *enc) seal(typ byte, flags uint16, index uint32, summary uint64, dst []byte) ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return appendFrame(dst, typ, flags, index, summary, e.b)
}

// encodeStats writes every core.Stats field in struct order. The map is
// the only unordered field; it is written sorted by class byte (strictly
// increasing — duplicates are impossible in a map and rejected on decode),
// which is what makes the encoding canonical.
func encodeStats(e *enc, s *hetwire.Stats) {
	e.u64(s.Instructions)
	e.u64(s.Cycles)
	e.u64(s.Branches)
	e.u64(s.Mispredicts)
	e.u64(s.BTBMisses)
	e.u64(s.Loads)
	e.u64(s.Stores)
	e.f64(s.L1DMissRate)
	e.f64(s.L2MissRate)
	e.f64(s.TLBMissRate)
	e.f64(s.BranchAccuracy)
	e.u64(s.OperandTransfers)
	e.u64(s.LocalOperands)
	e.u64(s.NarrowTransfers)
	e.u64(s.NarrowMispredicted)
	e.u64(s.ReadyOperandPW)
	e.u64(s.StoreDataPW)
	e.u64(s.BalancePW)
	e.u64(s.NarrowEligible)
	e.u64(s.FVTransfers)
	e.u64(s.CriticalWordOnL)
	e.u64(s.PartialFalseDeps)
	e.u64(s.PartialChecks)
	e.u64(s.StoreForwards)
	for i := range s.Net {
		cs := &s.Net[i]
		e.u64(cs.Transfers)
		e.u64(cs.Bits)
		e.u64(cs.BitHops)
		e.u64(cs.WaitCycles)
		e.u64(cs.MaxWait)
	}
	e.u64(s.WaitCycles)
	if s.LinkInventory == nil {
		e.u8(0)
	} else {
		e.u8(1)
		keys := make([]wires.Class, 0, len(s.LinkInventory))
		for k := range s.LinkInventory {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		e.u32(uint32(len(keys)))
		for _, k := range keys {
			e.u8(byte(k))
			e.f64(s.LinkInventory[k])
		}
	}
	e.u64(s.CalendarClamps)
	e.u64(s.SumDispatchStall)
	e.u64(s.SumSrcWait)
	e.u64(s.SumFUWait)
	e.u64(s.SumLoadLatency)
	e.u64(s.SumLSQWait)
	e.u64(s.SumStoreAddrLag)
	e.u64(s.MaxStoreAddrLag)
}

func encodeRunResponse(e *enc, r *hetwire.RunResponse) {
	e.str(r.Benchmark)
	e.strs(r.Benchmarks)
	e.str(r.Model)
	e.intv(r.Clusters)
	e.u64(r.N)
	e.f64(r.IPC)
	e.u64(r.Instructions)
	e.u64(r.Cycles)
	if r.Stats == nil {
		e.u8(0)
	} else {
		e.u8(1)
		encodeStats(e, r.Stats)
	}
	if r.Threads == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.u32(uint32(len(r.Threads)))
		for i := range r.Threads {
			t := &r.Threads[i]
			e.str(t.Benchmark)
			e.ints(t.Clusters)
			e.f64(t.IPC)
			encodeStats(e, &t.Stats)
		}
	}
}

func encodeRunRequest(e *enc, r *hetwire.RunRequest) {
	e.str(r.Benchmark)
	e.strs(r.Benchmarks)
	e.u64(r.N)
	if r.Config == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.blob(r.Config)
	}
	e.str(r.Model)
	e.intv(r.Clusters)
}

// EncodeRunResult encodes one RunResponse as a TypeRunResult frame. The
// header summary word carries the IPC bits so downstream layers read it
// without decoding.
func EncodeRunResult(r *hetwire.RunResponse) ([]byte, error) {
	e := &enc{}
	encodeRunResponse(e, r)
	return e.seal(TypeRunResult, 0, 0, math.Float64bits(r.IPC), nil)
}

// Scenario is the decoded form of a TypeScenario frame: one batch scenario
// outcome at its expansion index. Result holds the embedded TypeRunResult
// frame verbatim — assembling a scenario frame from a cached result is a
// pure copy, and Response() decodes it only when a caller actually needs
// the struct.
type Scenario struct {
	Index   int
	Request hetwire.RunRequest
	// Result is the embedded TypeRunResult frame bytes; nil when Error is
	// set. Exactly one of Result and Error is present.
	Result []byte
	Error  string
	Reason string
	Cached bool
}

// Response decodes the embedded result frame (a full payload decode; the
// streaming/copy paths never call this).
func (sc *Scenario) Response() (*hetwire.RunResponse, error) {
	if sc.Result == nil {
		return nil, fmt.Errorf("wire: scenario %d has no result (error %q)", sc.Index, sc.Error)
	}
	return DecodeRunResult(sc.Result)
}

// AppendScenario appends sc as a TypeScenario frame. The embedded result
// frame is validated structurally (header + CRC) but its payload is not
// decoded — the zero-copy path from cache to stream.
func AppendScenario(dst []byte, sc *Scenario) ([]byte, error) {
	if sc.Index < 0 || sc.Index > math.MaxUint32 {
		return nil, fmt.Errorf("wire: scenario index %d out of range", sc.Index)
	}
	result := sc.Result
	if len(result) == 0 {
		result = nil
	}
	if (result == nil) == (sc.Error == "") {
		return nil, fmt.Errorf("wire: scenario %d must carry exactly one of result and error", sc.Index)
	}
	if sc.Reason != "" && sc.Error == "" {
		return nil, fmt.Errorf("wire: scenario %d has a reason code without an error", sc.Index)
	}
	var flags uint16
	var summary uint64
	if sc.Error != "" {
		flags |= FlagError
	} else {
		rh, _, err := checkFrame(result)
		if err != nil {
			return nil, fmt.Errorf("wire: scenario %d embedded result: %w", sc.Index, err)
		}
		if rh.Type != TypeRunResult || rh.Flags != 0 || rh.Index != 0 {
			return nil, fmt.Errorf("wire: scenario %d embedded frame is not a plain run result", sc.Index)
		}
		summary = rh.Summary
	}
	if sc.Cached {
		flags |= FlagCached
	}
	e := &enc{}
	e.u32(uint32(sc.Index))
	encodeRunRequest(e, &sc.Request)
	e.str(sc.Error)
	e.str(sc.Reason)
	if result == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.blob(result)
	}
	return e.seal(TypeScenario, flags, uint32(sc.Index), summary, dst)
}

// AppendBatchHeader opens a batch stream: total is the expanded scenario
// count the stream will carry.
func AppendBatchHeader(dst []byte, total int) ([]byte, error) {
	if total < 0 || total > math.MaxUint32 {
		return nil, fmt.Errorf("wire: batch total %d out of range", total)
	}
	e := &enc{}
	e.u32(uint32(total))
	return e.seal(TypeBatchHeader, 0, 0, 0, dst)
}

// BatchTrailer closes a batch stream with its outcome counts.
type BatchTrailer struct {
	Total     int
	Completed int
	Failed    int
	CacheHits int
}

// Incomplete reports that the stream ended before every scenario resolved.
func (t BatchTrailer) Incomplete() bool { return t.Completed+t.Failed < t.Total }

// AppendBatchTrailer appends the stream-closing trailer. The incomplete
// flag is derived from the counts, never set independently.
func AppendBatchTrailer(dst []byte, t BatchTrailer) ([]byte, error) {
	if t.Total < 0 || t.Completed < 0 || t.Failed < 0 || t.CacheHits < 0 ||
		t.Total > math.MaxUint32 || t.Completed+t.Failed > t.Total || t.CacheHits > t.Completed {
		return nil, fmt.Errorf("wire: inconsistent batch trailer %+v", t)
	}
	var flags uint16
	if t.Incomplete() {
		flags |= FlagIncomplete
	}
	e := &enc{}
	e.u32(uint32(t.Total))
	e.u32(uint32(t.Completed))
	e.u32(uint32(t.Failed))
	e.u32(uint32(t.CacheHits))
	return e.seal(TypeBatchTrailer, flags, 0, 0, dst)
}

// EncodeBatch encodes a complete BatchResponse as a batch stream (header,
// scenarios in index order, trailer). This is the struct→bytes direction
// used by conversion paths; the daemon's streaming path assembles the same
// bytes from stored frames without ever building the struct.
func EncodeBatch(resp *hetwire.BatchResponse) ([]byte, error) {
	buf, err := AppendBatchHeader(nil, len(resp.Scenarios))
	if err != nil {
		return nil, err
	}
	for i := range resp.Scenarios {
		bs := &resp.Scenarios[i]
		if bs.Index != i {
			return nil, fmt.Errorf("wire: batch scenario at position %d has index %d", i, bs.Index)
		}
		sc := Scenario{
			Index:   bs.Index,
			Request: bs.Request,
			Error:   bs.Error,
			Reason:  bs.Reason,
			Cached:  bs.Cached,
		}
		if bs.Response != nil {
			sc.Result, err = EncodeRunResult(bs.Response)
			if err != nil {
				return nil, err
			}
		}
		buf, err = AppendScenario(buf, &sc)
		if err != nil {
			return nil, err
		}
	}
	return AppendBatchTrailer(buf, BatchTrailer{
		Total:     len(resp.Scenarios),
		Completed: resp.Completed,
		Failed:    resp.Failed,
		CacheHits: resp.CacheHits,
	})
}

// SpanMS is one node-side lease phase timing inside an upload header; the
// coordinator merges spans by name into the originating job's breakdown.
type SpanMS struct {
	Name  string
	DurMS float64
}

// UploadHeader opens a cluster upload stream: the uploading node, the lease
// and job the results answer, and the node-side span timings.
type UploadHeader struct {
	NodeID  string
	LeaseID string
	JobID   string
	Spans   []SpanMS
}

// AppendUploadHeader appends h as a TypeUploadHeader frame.
func AppendUploadHeader(dst []byte, h *UploadHeader) ([]byte, error) {
	e := &enc{}
	e.str(h.NodeID)
	e.str(h.LeaseID)
	e.str(h.JobID)
	if h.Spans == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.u32(uint32(len(h.Spans)))
		for _, sp := range h.Spans {
			e.str(sp.Name)
			e.f64(sp.DurMS)
		}
	}
	return e.seal(TypeUploadHeader, 0, 0, 0, dst)
}

// UploadResult is one scenario outcome inside a cluster upload, addressed
// by its absolute expansion index. Exactly one of Frame, Error, and Skipped
// is set.
type UploadResult struct {
	Index int
	// CacheKey is the scenario's content-addressed request identity
	// (hetwire.RunRequest.CacheKey); the coordinator uses it to populate the
	// federated cache and to fill skipped slots.
	CacheKey string
	// Frame is the embedded TypeRunResult frame for a completed scenario.
	Frame []byte
	// Error/Reason report a scenario that failed on the node, isolated to
	// its slot like local batch execution.
	Error  string
	Reason string
	// Skipped marks a scenario the node did not simulate because the
	// federated cache check reported its key as known.
	Skipped bool
}

// EncodeUpload assembles a complete upload stream: h as a TypeUploadHeader
// frame, then one TypeUploadResult frame per result, each embedding its
// result frame verbatim.
func EncodeUpload(h *UploadHeader, results []UploadResult) ([]byte, error) {
	out, err := AppendUploadHeader(nil, h)
	for i := 0; i < len(results) && err == nil; i++ {
		out, err = AppendUploadResult(out, &results[i])
	}
	return out, err
}

// AppendUploadResult appends r as a TypeUploadResult frame.
func AppendUploadResult(dst []byte, r *UploadResult) ([]byte, error) {
	if r.Index < 0 || r.Index > math.MaxUint32 {
		return nil, fmt.Errorf("wire: upload result index %d out of range", r.Index)
	}
	frame := r.Frame
	if len(frame) == 0 {
		frame = nil
	}
	set := 0
	if frame != nil {
		set++
	}
	if r.Error != "" {
		set++
	}
	if r.Skipped {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("wire: upload result %d must carry exactly one of frame, error, and skip marker", r.Index)
	}
	if r.Reason != "" && r.Error == "" {
		return nil, fmt.Errorf("wire: upload result %d has a reason code without an error", r.Index)
	}
	var flags uint16
	var summary uint64
	switch {
	case r.Error != "":
		flags |= FlagError
	case r.Skipped:
		flags |= FlagSkipped
	default:
		rh, _, err := checkFrame(frame)
		if err != nil {
			return nil, fmt.Errorf("wire: upload result %d embedded frame: %w", r.Index, err)
		}
		if rh.Type != TypeRunResult || rh.Flags != 0 || rh.Index != 0 {
			return nil, fmt.Errorf("wire: upload result %d embedded frame is not a plain run result", r.Index)
		}
		summary = rh.Summary
	}
	e := &enc{}
	e.u32(uint32(r.Index))
	e.str(r.CacheKey)
	e.str(r.Error)
	e.str(r.Reason)
	if frame == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.blob(frame)
	}
	return e.seal(TypeUploadResult, flags, uint32(r.Index), summary, dst)
}
