package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"hetwire"
	"hetwire/internal/wires"
)

// sampleStats fills every Stats field with a distinct value so a codec that
// drops, reorders, or aliases any field fails DeepEqual.
func sampleStats(seed uint64) hetwire.Stats {
	var s hetwire.Stats
	v := seed
	next := func() uint64 { v += 1000003; return v }
	s.Instructions = next()
	s.Cycles = next()
	s.Branches = next()
	s.Mispredicts = next()
	s.BTBMisses = next()
	s.Loads = next()
	s.Stores = next()
	s.L1DMissRate = float64(next()%97) / 97
	s.L2MissRate = float64(next()%89) / 89
	s.TLBMissRate = float64(next()%83) / 83
	s.BranchAccuracy = float64(next()%79) / 79
	s.OperandTransfers = next()
	s.LocalOperands = next()
	s.NarrowTransfers = next()
	s.NarrowMispredicted = next()
	s.ReadyOperandPW = next()
	s.StoreDataPW = next()
	s.BalancePW = next()
	s.NarrowEligible = next()
	s.FVTransfers = next()
	s.CriticalWordOnL = next()
	s.PartialFalseDeps = next()
	s.PartialChecks = next()
	s.StoreForwards = next()
	for i := range s.Net {
		s.Net[i].Transfers = next()
		s.Net[i].Bits = next()
		s.Net[i].BitHops = next()
		s.Net[i].WaitCycles = next()
		s.Net[i].MaxWait = next()
	}
	s.WaitCycles = next()
	s.LinkInventory = map[wires.Class]float64{
		wires.W:  float64(next() % 512),
		wires.PW: float64(next() % 512),
		wires.B:  float64(next() % 512),
		wires.L:  float64(next() % 512),
	}
	s.CalendarClamps = next()
	s.SumDispatchStall = next()
	s.SumSrcWait = next()
	s.SumFUWait = next()
	s.SumLoadLatency = next()
	s.SumLSQWait = next()
	s.SumStoreAddrLag = next()
	s.MaxStoreAddrLag = next()
	return s
}

func sampleResponse() *hetwire.RunResponse {
	st := sampleStats(7)
	return &hetwire.RunResponse{
		Benchmark:    "gcc",
		Model:        "VIII",
		Clusters:     4,
		N:            16000,
		IPC:          1.23456789,
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		Stats:        &st,
	}
}

func sampleMultiResponse() *hetwire.RunResponse {
	t0, t1 := sampleStats(11), sampleStats(13)
	return &hetwire.RunResponse{
		Benchmarks:   []string{"gzip", "mcf"},
		Model:        "V",
		Clusters:     16,
		N:            4000,
		IPC:          0.75,
		Instructions: 8000,
		Cycles:       9000,
		Threads: []hetwire.ThreadSummary{
			{Benchmark: "gzip", Clusters: []int{0, 1}, IPC: 0.5, Stats: t0},
			{Benchmark: "mcf", Clusters: []int{2, 3}, IPC: 1.0, Stats: t1},
		},
	}
}

func TestRunResultRoundTrip(t *testing.T) {
	for name, resp := range map[string]*hetwire.RunResponse{
		"single": sampleResponse(),
		"multi":  sampleMultiResponse(),
		"empty":  {},
		"nil-map": func() *hetwire.RunResponse {
			r := sampleResponse()
			r.Stats.LinkInventory = nil
			return r
		}(),
		"empty-map": func() *hetwire.RunResponse {
			r := sampleResponse()
			r.Stats.LinkInventory = map[wires.Class]float64{}
			return r
		}(),
	} {
		frame, err := EncodeRunResult(resp)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeRunResult(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, resp)
		}
		again, err := EncodeRunResult(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-encode is not byte-identical", name)
		}
		// The JSON views must also agree — this is what keeps ResultHash
		// parity between the two encodings.
		ja, _ := json.Marshal(resp)
		jb, _ := json.Marshal(got)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: JSON views differ:\n%s\n%s", name, ja, jb)
		}
	}
}

func TestHeaderSummaryIsIPC(t *testing.T) {
	resp := sampleResponse()
	frame, err := EncodeRunResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	h, err := PeekHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeRunResult {
		t.Fatalf("type = %#02x", h.Type)
	}
	if got := h.SummaryFloat(); got != resp.IPC {
		t.Fatalf("summary IPC = %v, want %v", got, resp.IPC)
	}
	if !IsWire(frame) {
		t.Fatal("IsWire(frame) = false")
	}
	if IsWire([]byte(`{"ipc":1}`)) {
		t.Fatal("IsWire(json) = true")
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	result, err := EncodeRunResult(sampleResponse())
	if err != nil {
		t.Fatal(err)
	}
	cases := []*Scenario{
		{Index: 0, Request: hetwire.RunRequest{Benchmark: "gcc", N: 16000, Model: "VIII"}, Result: result, Cached: true},
		{Index: 3, Request: hetwire.RunRequest{Benchmarks: []string{"gzip", "mcf"}, Clusters: 16}, Result: result},
		{Index: 7, Request: hetwire.RunRequest{Benchmark: "swim", Config: json.RawMessage(`{"model":"I"}`)},
			Error: "boom", Reason: "internal"},
	}
	for i, sc := range cases {
		frame, err := AppendScenario(nil, sc)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := DecodeScenario(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, sc)
		}
		again, err := AppendScenario(nil, got)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("case %d: re-encode is not byte-identical", i)
		}
		h, err := PeekHeader(frame)
		if err != nil {
			t.Fatalf("case %d: peek: %v", i, err)
		}
		if int(h.Index) != sc.Index {
			t.Fatalf("case %d: header index %d", i, h.Index)
		}
		if sc.Error == "" {
			if h.SummaryFloat() != sampleResponse().IPC {
				t.Fatalf("case %d: summary = %v", i, h.SummaryFloat())
			}
			resp, err := got.Response()
			if err != nil {
				t.Fatalf("case %d: response: %v", i, err)
			}
			if !reflect.DeepEqual(resp, sampleResponse()) {
				t.Fatalf("case %d: embedded response mismatch", i)
			}
		}
	}
	if _, err := AppendScenario(nil, &Scenario{Index: 1}); err == nil {
		t.Fatal("scenario with neither result nor error must not encode")
	}
	if _, err := AppendScenario(nil, &Scenario{Index: 1, Result: result, Error: "x"}); err == nil {
		t.Fatal("scenario with both result and error must not encode")
	}
}

func TestBatchStreamRoundTrip(t *testing.T) {
	resp := &hetwire.BatchResponse{
		Scenarios: []hetwire.BatchScenario{
			{Index: 0, Request: hetwire.RunRequest{Benchmark: "gcc"}, Response: sampleResponse(), Cached: true},
			{Index: 1, Request: hetwire.RunRequest{Benchmark: "mcf"}, Error: "deadline exceeded", Reason: "cancelled"},
			{Index: 2, Request: hetwire.RunRequest{Benchmarks: []string{"gzip", "mesa"}}, Response: sampleMultiResponse()},
		},
		Completed: 2,
		Failed:    1,
		CacheHits: 1,
	}
	buf, err := EncodeBatch(resp)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(buf)
	if err != nil || n != 5 {
		t.Fatalf("Count = %d, %v; want 5 frames", n, err)
	}
	frames, err := Split(buf)
	if err != nil || len(frames) != 5 {
		t.Fatalf("Split = %d frames, %v", len(frames), err)
	}
	total := 0
	for _, fr := range frames {
		total += len(fr)
	}
	if total != len(buf) {
		t.Fatalf("split frames cover %d of %d bytes", total, len(buf))
	}
	got, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("batch round trip mismatch:\n got %+v\nwant %+v", got, resp)
	}
	again, err := EncodeBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatal("batch re-encode is not byte-identical")
	}
}

func TestReaderMatchesSplit(t *testing.T) {
	buf, err := EncodeBatch(&hetwire.BatchResponse{
		Scenarios: []hetwire.BatchScenario{
			{Index: 0, Request: hetwire.RunRequest{Benchmark: "gcc"}, Response: sampleResponse()},
		},
		Completed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := Split(buf)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(buf))
	for i := 0; ; i++ {
		_, fr, err := rd.Next()
		if err == io.EOF {
			if i != len(frames) {
				t.Fatalf("reader yielded %d frames, split %d", i, len(frames))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr, frames[i]) {
			t.Fatalf("reader frame %d differs from split", i)
		}
	}
	// A torn stream is an error, not EOF.
	rd = NewReader(bytes.NewReader(buf[:len(buf)-3]))
	var lastErr error
	for {
		_, _, err := rd.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == io.EOF {
		t.Fatal("torn stream read as clean EOF")
	}
}

func TestCorruptionDetected(t *testing.T) {
	frame, err := EncodeRunResult(sampleResponse())
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{5, 6, HeaderSize, HeaderSize + 9, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[off] ^= 0x40
		if _, err := DecodeRunResult(bad); err == nil {
			t.Fatalf("corruption at offset %d went undetected", off)
		}
	}
}

func TestNonCanonicalRejected(t *testing.T) {
	// An unsorted LinkInventory is not a canonical encoding.
	resp := sampleResponse()
	frame, err := EncodeRunResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the two map entries (4 keys sorted W<PW<B<L = 0,1,2,3) and swap
	// the first two 9-byte entries, fixing up the CRC so only ordering is
	// wrong.
	d, err := DecodeRunResult(frame)
	if err != nil || len(d.Stats.LinkInventory) != 4 {
		t.Fatalf("setup: %v", err)
	}
	// Rebuild with a tampered payload: swapping bytes invalidates the CRC,
	// which must already be enough to reject; ordering violations are
	// covered by crafting the payload through the encoder internals.
	e := &enc{}
	e.u8(1)
	e.u32(2)
	e.u8(3) // L before W: not strictly increasing once 0 follows
	e.f64(1)
	e.u8(0)
	e.f64(2)
	dd := &dec{b: e.b}
	if dd.presence() {
		n := dd.count(9)
		prev := -1
		for i := 0; i < n && dd.err == nil; i++ {
			k := dd.u8()
			if int(k) <= prev {
				dd.fail("unsorted")
			}
			prev = int(k)
			dd.f64()
		}
	}
	if dd.err == nil {
		t.Fatal("unsorted map order accepted")
	}

	// A bool byte other than 0/1 is rejected.
	bd := &dec{b: []byte{2}}
	bd.presence()
	if bd.err == nil {
		t.Fatal("presence byte 2 accepted")
	}

	// Trailing bytes are rejected.
	td := &dec{b: []byte{0, 99}}
	td.presence()
	if err := td.finish(); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// A run-result frame whose summary word disagrees with the payload IPC
	// is rejected even with a valid CRC.
	resp2 := sampleResponse()
	frame2, _ := EncodeRunResult(resp2)
	forged, _ := appendFrame(nil, TypeRunResult, 0, 0, math.Float64bits(resp2.IPC)+1, frame2[HeaderSize:])
	if _, err := DecodeRunResult(forged); err == nil {
		t.Fatal("summary/payload disagreement accepted")
	}
}

// TestRetiredFrameTypesRejected pins that the retired type bytes 0x05 and
// 0x08 (once trace and flight JSONL containers) are unknown to every
// decoder, alone and inside an upload stream.
func TestRetiredFrameTypesRejected(t *testing.T) {
	hdr, err := AppendUploadHeader(nil, &UploadHeader{NodeID: "n", LeaseID: "l", JobID: "j"})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []byte{0x05, 0x08} {
		frame, err := appendFrame(nil, typ, 0, 0, 0, []byte(`{"seq":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRunResult(frame); err == nil {
			t.Errorf("type %#02x decoded as a run result", typ)
		}
		if _, err := DecodeScenario(frame); err == nil {
			t.Errorf("type %#02x decoded as a scenario", typ)
		}
		if _, err := DecodeUploadHeader(frame); err == nil {
			t.Errorf("type %#02x decoded as an upload header", typ)
		}
		if _, err := DecodeUploadResult(frame); err == nil {
			t.Errorf("type %#02x decoded as an upload result", typ)
		}
		if _, _, err := DecodeUpload(append(append([]byte(nil), hdr...), frame...)); err == nil {
			t.Errorf("upload stream carrying type %#02x accepted", typ)
		}
	}
}

func TestUploadFramesRoundTrip(t *testing.T) {
	result, err := EncodeRunResult(sampleResponse())
	if err != nil {
		t.Fatal(err)
	}
	uh := &UploadHeader{
		NodeID:  "node-1",
		LeaseID: "lease-9",
		JobID:   "job-3",
		Spans:   []SpanMS{{Name: "node_sim", DurMS: 12.5}, {Name: "node_upload", DurMS: 0.25}},
	}
	hf, err := AppendUploadHeader(nil, uh)
	if err != nil {
		t.Fatal(err)
	}
	gotH, err := DecodeUploadHeader(hf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotH, uh) {
		t.Fatalf("upload header mismatch: %+v vs %+v", gotH, uh)
	}
	if again, _ := AppendUploadHeader(nil, gotH); !bytes.Equal(again, hf) {
		t.Fatal("upload header re-encode is not byte-identical")
	}

	cases := []*UploadResult{
		{Index: 0, CacheKey: "k0", Frame: result},
		{Index: 1, CacheKey: "k1", Skipped: true},
		{Index: 2, Error: "sim exploded", Reason: "internal"},
	}
	for i, ur := range cases {
		fr, err := AppendUploadResult(nil, ur)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := DecodeUploadResult(fr)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, ur) {
			t.Fatalf("case %d: mismatch %+v vs %+v", i, got, ur)
		}
		if again, _ := AppendUploadResult(nil, got); !bytes.Equal(again, fr) {
			t.Fatalf("case %d: re-encode is not byte-identical", i)
		}
	}
	if _, err := AppendUploadResult(nil, &UploadResult{Index: 0, Frame: result, Skipped: true}); err == nil {
		t.Fatal("frame+skip upload result must not encode")
	}

	// The whole stream round-trips through EncodeUpload/DecodeUpload.
	results := []UploadResult{*cases[0], *cases[1], *cases[2]}
	stream, err := EncodeUpload(uh, results)
	if err != nil {
		t.Fatal(err)
	}
	gotH, gotR, err := DecodeUpload(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotH, uh) || !reflect.DeepEqual(gotR, results) {
		t.Fatalf("upload stream mismatch: %+v %+v", gotH, gotR)
	}
	if _, _, err := DecodeUpload(nil); err == nil {
		t.Fatal("empty upload stream accepted")
	}
	if _, _, err := DecodeUpload(append(append([]byte(nil), stream...), hf...)); err == nil {
		t.Fatal("upload stream with a second header accepted")
	}
}

func TestResultDecodesCounter(t *testing.T) {
	frame, err := EncodeRunResult(sampleResponse())
	if err != nil {
		t.Fatal(err)
	}
	before := ResultDecodes.Value()
	if _, err := PeekHeader(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := Count(frame); err != nil {
		t.Fatal(err)
	}
	if err := ValidateResultFrame(frame); err != nil {
		t.Fatal(err)
	}
	if got := ResultDecodes.Value(); got != before {
		t.Fatalf("peek/count/validate moved the decode counter: %d -> %d", before, got)
	}
	if _, err := DecodeRunResult(frame); err != nil {
		t.Fatal(err)
	}
	if got := ResultDecodes.Value(); got != before+1 {
		t.Fatalf("decode counter = %d, want %d", got, before+1)
	}
}
