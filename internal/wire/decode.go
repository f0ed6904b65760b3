package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"hetwire"
	"hetwire/internal/wires"
)

// dec is a strict sequential payload reader. Errors are sticky, every read
// after a failure is a no-op, and finish() rejects trailing bytes — between
// them, a payload is accepted only if every byte was consumed by exactly
// the reads the canonical encoder would have written.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated payload at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// intv reads a non-negative int encoded as u64.
func (d *dec) intv() int {
	v := d.u64()
	if v > math.MaxInt64 {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// presence reads a strictly-0-or-1 presence byte.
func (d *dec) presence() bool {
	switch v := d.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("non-canonical presence byte %d", v)
		return false
	}
}

// count reads a u32 element count and bounds it by the bytes remaining at
// min bytes per element, so a hostile count cannot drive a huge allocation.
func (d *dec) count(min int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(min) > int64(len(d.b)-d.off) {
		d.fail("element count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.count(1)
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// blob reads a length-prefixed byte string, returning a fresh copy. A
// zero-length blob decodes to a non-nil empty slice: presence bytes encode
// the nil/non-nil distinction, so the blob itself must preserve it too for
// decode∘encode to be the identity.
func (d *dec) blob() []byte {
	n := d.count(1)
	p := d.take(n)
	if p == nil {
		return nil
	}
	b := make([]byte, n)
	copy(b, p)
	return b
}

func (d *dec) strs() []string {
	if !d.presence() {
		return nil
	}
	n := d.count(4)
	ss := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		ss = append(ss, d.str())
	}
	return ss
}

func (d *dec) ints() []int {
	if !d.presence() {
		return nil
	}
	n := d.count(8)
	vs := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		vs = append(vs, d.intv())
	}
	return vs
}

// finish rejects payloads with unconsumed bytes and surfaces the sticky
// error.
func (d *dec) finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes after payload", len(d.b)-d.off)
	}
	return d.err
}

func decodeStats(d *dec) hetwire.Stats {
	var s hetwire.Stats
	s.Instructions = d.u64()
	s.Cycles = d.u64()
	s.Branches = d.u64()
	s.Mispredicts = d.u64()
	s.BTBMisses = d.u64()
	s.Loads = d.u64()
	s.Stores = d.u64()
	s.L1DMissRate = d.f64()
	s.L2MissRate = d.f64()
	s.TLBMissRate = d.f64()
	s.BranchAccuracy = d.f64()
	s.OperandTransfers = d.u64()
	s.LocalOperands = d.u64()
	s.NarrowTransfers = d.u64()
	s.NarrowMispredicted = d.u64()
	s.ReadyOperandPW = d.u64()
	s.StoreDataPW = d.u64()
	s.BalancePW = d.u64()
	s.NarrowEligible = d.u64()
	s.FVTransfers = d.u64()
	s.CriticalWordOnL = d.u64()
	s.PartialFalseDeps = d.u64()
	s.PartialChecks = d.u64()
	s.StoreForwards = d.u64()
	for i := range s.Net {
		cs := &s.Net[i]
		cs.Transfers = d.u64()
		cs.Bits = d.u64()
		cs.BitHops = d.u64()
		cs.WaitCycles = d.u64()
		cs.MaxWait = d.u64()
	}
	s.WaitCycles = d.u64()
	if d.presence() {
		n := d.count(9)
		s.LinkInventory = make(map[wires.Class]float64, n)
		prev := -1
		for i := 0; i < n && d.err == nil; i++ {
			k := d.u8()
			if int(k) <= prev {
				d.fail("link inventory keys not strictly increasing")
				break
			}
			prev = int(k)
			s.LinkInventory[wires.Class(k)] = d.f64()
		}
	}
	s.CalendarClamps = d.u64()
	s.SumDispatchStall = d.u64()
	s.SumSrcWait = d.u64()
	s.SumFUWait = d.u64()
	s.SumLoadLatency = d.u64()
	s.SumLSQWait = d.u64()
	s.SumStoreAddrLag = d.u64()
	s.MaxStoreAddrLag = d.u64()
	return s
}

func decodeRunResponse(d *dec) *hetwire.RunResponse {
	r := &hetwire.RunResponse{}
	r.Benchmark = d.str()
	r.Benchmarks = d.strs()
	r.Model = d.str()
	r.Clusters = d.intv()
	r.N = d.u64()
	r.IPC = d.f64()
	r.Instructions = d.u64()
	r.Cycles = d.u64()
	if d.presence() {
		st := decodeStats(d)
		r.Stats = &st
	}
	if d.presence() {
		n := d.count(4)
		r.Threads = make([]hetwire.ThreadSummary, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			var t hetwire.ThreadSummary
			t.Benchmark = d.str()
			t.Clusters = d.ints()
			t.IPC = d.f64()
			t.Stats = decodeStats(d)
			r.Threads = append(r.Threads, t)
		}
	}
	return r
}

func decodeRunRequest(d *dec) hetwire.RunRequest {
	var r hetwire.RunRequest
	r.Benchmark = d.str()
	r.Benchmarks = d.strs()
	r.N = d.u64()
	if d.presence() {
		r.Config = json.RawMessage(d.blob())
	}
	r.Model = d.str()
	r.Clusters = d.intv()
	return r
}

// decodeResultFrame is DecodeRunResult without the counter bump, shared by
// the public decoder and trust-boundary validation.
func decodeResultFrame(frame []byte) (*hetwire.RunResponse, error) {
	h, payload, err := checkFrame(frame)
	if err != nil {
		return nil, err
	}
	if h.Type != TypeRunResult {
		return nil, fmt.Errorf("wire: frame type %#02x is not a run result", h.Type)
	}
	if h.Flags != 0 || h.Index != 0 {
		return nil, fmt.Errorf("wire: run result frame has nonzero flags/index")
	}
	d := &dec{b: payload}
	r := decodeRunResponse(d)
	if err := d.finish(); err != nil {
		return nil, err
	}
	if h.Summary != math.Float64bits(r.IPC) {
		return nil, fmt.Errorf("wire: header summary %016x disagrees with payload IPC", h.Summary)
	}
	return r, nil
}

// DecodeRunResult decodes a TypeRunResult frame back into its RunResponse.
// Every call is counted in ResultDecodes — the zero-decode serving
// invariant is asserted against exactly this counter.
func DecodeRunResult(frame []byte) (*hetwire.RunResponse, error) {
	r, err := decodeResultFrame(frame)
	if err != nil {
		return nil, err
	}
	ResultDecodes.Add(1)
	return r, nil
}

// ValidateResultFrame fully validates a TypeRunResult frame — structure,
// CRC, canonical payload, header/payload agreement — without yielding the
// struct. It is the trust-boundary check for frames arriving from cluster
// nodes; it does not count as a serving-path decode.
func ValidateResultFrame(frame []byte) error {
	_, err := decodeResultFrame(frame)
	return err
}

// DecodeScenario decodes a TypeScenario frame. The embedded result frame
// is structurally validated and returned verbatim in Scenario.Result; its
// payload is not decoded (use Scenario.Response when the struct is needed).
func DecodeScenario(frame []byte) (*Scenario, error) {
	h, payload, err := checkFrame(frame)
	if err != nil {
		return nil, err
	}
	if h.Type != TypeScenario {
		return nil, fmt.Errorf("wire: frame type %#02x is not a scenario", h.Type)
	}
	if h.Flags&^(FlagError|FlagCached) != 0 {
		return nil, fmt.Errorf("wire: scenario frame has unknown flag bits %#04x", h.Flags)
	}
	d := &dec{b: payload}
	sc := &Scenario{}
	idx := d.u32()
	sc.Index = int(idx)
	sc.Request = decodeRunRequest(d)
	sc.Error = d.str()
	sc.Reason = d.str()
	if d.presence() {
		sc.Result = d.blob()
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	if idx != h.Index {
		return nil, fmt.Errorf("wire: scenario payload index %d disagrees with header %d", idx, h.Index)
	}
	if (sc.Result == nil) == (sc.Error == "") {
		return nil, fmt.Errorf("wire: scenario %d must carry exactly one of result and error", sc.Index)
	}
	if sc.Reason != "" && sc.Error == "" {
		return nil, fmt.Errorf("wire: scenario %d has a reason code without an error", sc.Index)
	}
	if (h.Flags&FlagError != 0) != (sc.Error != "") {
		return nil, fmt.Errorf("wire: scenario %d error flag disagrees with payload", sc.Index)
	}
	sc.Cached = h.Flags&FlagCached != 0
	if sc.Error != "" {
		if h.Summary != 0 {
			return nil, fmt.Errorf("wire: failed scenario %d has a nonzero summary word", sc.Index)
		}
		return sc, nil
	}
	rh, _, err := checkFrame(sc.Result)
	if err != nil {
		return nil, fmt.Errorf("wire: scenario %d embedded result: %w", sc.Index, err)
	}
	if rh.Type != TypeRunResult || rh.Flags != 0 || rh.Index != 0 {
		return nil, fmt.Errorf("wire: scenario %d embedded frame is not a plain run result", sc.Index)
	}
	if rh.Summary != h.Summary {
		return nil, fmt.Errorf("wire: scenario %d summary word disagrees with embedded result", sc.Index)
	}
	return sc, nil
}

// DecodeBatchHeader decodes a TypeBatchHeader frame into its scenario total.
func DecodeBatchHeader(frame []byte) (int, error) {
	h, payload, err := checkFrame(frame)
	if err != nil {
		return 0, err
	}
	if h.Type != TypeBatchHeader {
		return 0, fmt.Errorf("wire: frame type %#02x is not a batch header", h.Type)
	}
	if h.Flags != 0 || h.Index != 0 || h.Summary != 0 {
		return 0, fmt.Errorf("wire: batch header frame has nonzero flags/index/summary")
	}
	d := &dec{b: payload}
	total := d.u32()
	if err := d.finish(); err != nil {
		return 0, err
	}
	return int(total), nil
}

// DecodeBatchTrailer decodes a TypeBatchTrailer frame.
func DecodeBatchTrailer(frame []byte) (BatchTrailer, error) {
	h, payload, err := checkFrame(frame)
	if err != nil {
		return BatchTrailer{}, err
	}
	if h.Type != TypeBatchTrailer {
		return BatchTrailer{}, fmt.Errorf("wire: frame type %#02x is not a batch trailer", h.Type)
	}
	if h.Flags&^FlagIncomplete != 0 || h.Index != 0 || h.Summary != 0 {
		return BatchTrailer{}, fmt.Errorf("wire: batch trailer frame has unknown flags or nonzero index/summary")
	}
	d := &dec{b: payload}
	t := BatchTrailer{
		Total:     int(d.u32()),
		Completed: int(d.u32()),
		Failed:    int(d.u32()),
		CacheHits: int(d.u32()),
	}
	if err := d.finish(); err != nil {
		return BatchTrailer{}, err
	}
	if t.Completed+t.Failed > t.Total || t.CacheHits > t.Completed {
		return BatchTrailer{}, fmt.Errorf("wire: inconsistent batch trailer %+v", t)
	}
	if (h.Flags&FlagIncomplete != 0) != t.Incomplete() {
		return BatchTrailer{}, fmt.Errorf("wire: batch trailer incomplete flag disagrees with counts")
	}
	return t, nil
}

// DecodeBatch decodes a complete batch stream (header + scenarios +
// trailer) into a BatchResponse, fully decoding every embedded result —
// the bytes→struct direction for JSON views and client fallbacks.
func DecodeBatch(buf []byte) (*hetwire.BatchResponse, error) {
	frames, err := Split(buf)
	if err != nil {
		return nil, err
	}
	if len(frames) < 2 {
		return nil, fmt.Errorf("wire: batch stream has %d frames, need header and trailer", len(frames))
	}
	total, err := DecodeBatchHeader(frames[0])
	if err != nil {
		return nil, err
	}
	if len(frames) != total+2 {
		return nil, fmt.Errorf("wire: batch stream has %d frames for %d scenarios", len(frames), total)
	}
	resp := &hetwire.BatchResponse{Scenarios: make([]hetwire.BatchScenario, total)}
	for i := 0; i < total; i++ {
		sc, err := DecodeScenario(frames[i+1])
		if err != nil {
			return nil, fmt.Errorf("wire: batch scenario %d: %w", i, err)
		}
		if sc.Index != i {
			return nil, fmt.Errorf("wire: batch scenario at position %d has index %d", i, sc.Index)
		}
		bs := &resp.Scenarios[i]
		bs.Index = sc.Index
		bs.Request = sc.Request
		bs.Error = sc.Error
		bs.Reason = sc.Reason
		bs.Cached = sc.Cached
		if sc.Result != nil {
			bs.Response, err = DecodeRunResult(sc.Result)
			if err != nil {
				return nil, fmt.Errorf("wire: batch scenario %d result: %w", i, err)
			}
			resp.Completed++
			if sc.Cached {
				resp.CacheHits++
			}
		} else {
			resp.Failed++
		}
	}
	t, err := DecodeBatchTrailer(frames[total+1])
	if err != nil {
		return nil, err
	}
	if t.Total != total || t.Completed != resp.Completed || t.Failed != resp.Failed || t.CacheHits != resp.CacheHits {
		return nil, fmt.Errorf("wire: batch trailer %+v disagrees with scenario outcomes (%d/%d/%d of %d)",
			t, resp.Completed, resp.Failed, resp.CacheHits, total)
	}
	return resp, nil
}

// DecodeUpload decodes a complete upload stream: one TypeUploadHeader frame
// followed by any number of TypeScenario frames. Embedded result frames are
// validated structurally and returned verbatim, never decoded.
func DecodeUpload(buf []byte) (*UploadHeader, []Scenario, error) {
	frames, err := Split(buf)
	if err != nil {
		return nil, nil, err
	}
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("wire: empty upload stream")
	}
	h, err := DecodeUploadHeader(frames[0])
	if err != nil {
		return nil, nil, err
	}
	scenarios := make([]Scenario, len(frames)-1)
	for i, fr := range frames[1:] {
		sc, err := DecodeScenario(fr)
		if err != nil {
			return nil, nil, err
		}
		scenarios[i] = *sc
	}
	return h, scenarios, nil
}

// DecodeUploadHeader decodes a TypeUploadHeader frame.
func DecodeUploadHeader(frame []byte) (*UploadHeader, error) {
	h, payload, err := checkFrame(frame)
	if err != nil {
		return nil, err
	}
	if h.Type != TypeUploadHeader {
		return nil, fmt.Errorf("wire: frame type %#02x is not an upload header", h.Type)
	}
	if h.Flags != 0 || h.Index != 0 || h.Summary != 0 {
		return nil, fmt.Errorf("wire: upload header frame has nonzero flags/index/summary")
	}
	d := &dec{b: payload}
	uh := &UploadHeader{}
	uh.NodeID = d.str()
	uh.LeaseID = d.str()
	uh.JobID = d.str()
	if d.presence() {
		n := d.count(12)
		uh.Spans = make([]SpanMS, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			var sp SpanMS
			sp.Name = d.str()
			sp.DurMS = d.f64()
			uh.Spans = append(uh.Spans, sp)
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return uh, nil
}
