package flight_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hetwire/internal/obs/flight"
)

// TestNilRecorderIsInert pins the disabled-path contract: every method on a
// nil recorder is a no-op, never a panic.
func TestNilRecorderIsInert(t *testing.T) {
	var r *flight.Recorder
	r.Record(flight.Event{Kind: flight.KindAdmit})
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if r.Seq() != 0 {
		t.Error("nil recorder has a sequence")
	}
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v, want nil", got)
	}
	if got := r.Since(0); got != nil {
		t.Errorf("nil Since = %v, want nil", got)
	}
	if err := r.SetSink(&bytes.Buffer{}, "x"); err != nil {
		t.Errorf("nil SetSink: %v", err)
	}
}

func TestRecorderOrderingAndLapping(t *testing.T) {
	r := flight.New(4) // tiny ring: 16 events lap it 4x
	for i := 0; i < 16; i++ {
		r.Record(flight.Event{Kind: flight.KindDispatch, Job: "j"})
	}
	if r.Seq() != 16 {
		t.Fatalf("Seq = %d, want 16", r.Seq())
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring of 4 holds %d events after lapping", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(13 + i); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d (most recent window, ordered)", i, ev.Seq, want)
		}
	}

	// Since drains incrementally: the watermark excludes already-seen events.
	if got := r.Since(14); len(got) != 2 || got[0].Seq != 15 || got[1].Seq != 16 {
		t.Errorf("Since(14) = %+v, want seqs 15,16", got)
	}
	if got := r.Since(16); len(got) != 0 {
		t.Errorf("Since(16) = %+v, want empty", got)
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := flight.New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(flight.Event{Kind: flight.KindCacheHit})
			}
		}()
	}
	wg.Wait()
	if r.Seq() != 800 {
		t.Fatalf("Seq = %d, want 800", r.Seq())
	}
	evs := r.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("full ring snapshot has %d events, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestCanonicalClearsMeasuredFields(t *testing.T) {
	in := []flight.Event{{Seq: 1, Kind: flight.KindDispatch, Tenant: "a", VTime: 3.5, DurMS: 12}}
	out := flight.Canonical(in)
	if out[0].VTime != 0 || out[0].DurMS != 0 {
		t.Errorf("canonical kept measured fields: %+v", out[0])
	}
	if out[0].Tenant != "a" || out[0].Seq != 1 {
		t.Errorf("canonical disturbed deterministic fields: %+v", out[0])
	}
	if in[0].VTime != 3.5 {
		t.Error("Canonical mutated its input")
	}
}

// TestDumpRoundTrip checks that a JSONL dump reads back to the events it
// was written from and re-writes to identical bytes — the property the CI
// cmp determinism check relies on.
func TestDumpRoundTrip(t *testing.T) {
	events := []flight.Event{
		{Seq: 1, Kind: flight.KindAdmit, Trace: "t1", Tenant: "acme", Job: "j-1", Lane: "interactive"},
		{Seq: 2, Kind: flight.KindDispatch, Trace: "t1", Tenant: "acme", Job: "j-1", Lane: "interactive", VTime: 0.25},
		{Seq: 3, Kind: flight.KindReject, Reason: "queue_full", Detail: "depth=64"},
	}
	var jsonl bytes.Buffer
	if err := flight.WriteDump(&jsonl, "hetwired", events); err != nil {
		t.Fatal(err)
	}
	hdr, got, err := flight.ReadDump(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != flight.Schema || hdr.Source != "hetwired" {
		t.Errorf("header = %+v", hdr)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, events)
	}

	var again bytes.Buffer
	if err := flight.WriteDump(&again, hdr.Source, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), jsonl.Bytes()) {
		t.Errorf("re-written dump is not byte-identical:\n got %q\nwant %q", again.Bytes(), jsonl.Bytes())
	}
}

func TestReadDumpRejectsWrongSchema(t *testing.T) {
	if _, _, err := flight.ReadDump(strings.NewReader(`{"schema":"hetwire-trace/v1"}` + "\n")); err == nil {
		t.Error("foreign schema accepted")
	}
	if _, _, err := flight.ReadDump(strings.NewReader("")); err == nil {
		t.Error("empty dump accepted")
	}
}

func TestSinkStreamsEvents(t *testing.T) {
	r := flight.New(8)
	var buf bytes.Buffer
	if err := r.SetSink(&buf, "node-a"); err != nil {
		t.Fatal(err)
	}
	r.Record(flight.Event{Kind: flight.KindLeaseRun, Lease: "l-1"})
	r.Record(flight.Event{Kind: flight.KindSpan, Detail: "node_sim", DurMS: 4})
	hdr, evs, err := flight.ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Source != "node-a" {
		t.Errorf("sink header source = %q", hdr.Source)
	}
	if len(evs) != 2 || evs[0].Kind != flight.KindLeaseRun || evs[1].Kind != flight.KindSpan {
		t.Errorf("sink stream = %+v", evs)
	}
}

// timelineSources builds a fixed coordinator + node source set.
func timelineSources() []flight.Source {
	coord := []flight.Event{
		{Seq: 1, Kind: flight.KindAdmit, Trace: "tr-a", Tenant: "acme", Job: "b-1"},
		{Seq: 2, Kind: flight.KindLeaseGrant, Trace: "tr-a", Tenant: "acme", Job: "b-1", Lease: "l-1", Node: "n-1", Detail: "range=[0,4)"},
		{Seq: 3, Kind: flight.KindLeaseGrant, Trace: "tr-a", Tenant: "acme", Job: "b-1", Lease: "l-2", Node: "n-1", Detail: "range=[4,8)"},
		{Seq: 4, Kind: flight.KindLeaseUpload, Trace: "tr-a", Tenant: "acme", Job: "b-1", Lease: "l-1", Detail: "accepted=4 duplicate=0 requeued=0"},
	}
	nodeEvs := []flight.Event{
		{Seq: 1, Kind: flight.KindLeaseRun, Trace: "tr-a", Tenant: "acme", Job: "b-1", Lease: "l-1", Node: "n-1", Detail: "range=[0,4)"},
		{Seq: 2, Kind: flight.KindSpan, Trace: "tr-a", Job: "b-1", Lease: "l-1", Node: "n-1", DurMS: 7.5, Detail: "node_sim"},
		{Seq: 3, Kind: flight.KindLeaseDone, Trace: "tr-a", Tenant: "acme", Job: "b-1", Lease: "l-1", Node: "n-1", Detail: "simulated=4 skipped=0 failed=0"},
		{Seq: 4, Kind: flight.KindLeaseRun, Trace: "tr-a", Tenant: "acme", Job: "b-1", Lease: "l-2", Node: "n-1", Detail: "range=[4,8)"},
	}
	return []flight.Source{
		{Name: "coordinator", Events: coord},
		{Name: "node-1", Events: nodeEvs},
	}
}

func TestMergeTimelineDeterministicAndCausal(t *testing.T) {
	a := flight.MergeTimeline(timelineSources(), false)
	b := flight.MergeTimeline(timelineSources(), false)
	if a != b {
		t.Fatalf("two merges of identical sources differ:\n%s\n---\n%s", a, b)
	}
	// Source-order independence: the merge keys on grant anchoring, not on
	// the order dumps were passed.
	srcs := timelineSources()
	srcs[0], srcs[1] = srcs[1], srcs[0]
	if c := flight.MergeTimeline(srcs, false); c != a {
		t.Fatalf("merge depends on source argument order:\n%s\n---\n%s", a, c)
	}

	// Causality: the node's l-1 execution sorts after the coordinator's l-1
	// grant and before the l-2 grant block.
	grant1 := strings.Index(a, "lease_grant tenant=acme job=b-1 lease=l-1")
	run1 := strings.Index(a, "lease_run tenant=acme job=b-1 lease=l-1")
	grant2 := strings.Index(a, "lease_grant tenant=acme job=b-1 lease=l-2")
	run2 := strings.Index(a, "lease_run tenant=acme job=b-1 lease=l-2")
	if !(grant1 >= 0 && run1 > grant1 && grant2 > run1 && run2 > grant2) {
		t.Errorf("causal ordering broken (grant1=%d run1=%d grant2=%d run2=%d):\n%s",
			grant1, run1, grant2, run2, a)
	}
	done1 := strings.Index(a, "lease_done tenant=acme job=b-1 lease=l-1 node=n-1 detail=simulated=4 skipped=0 failed=0")
	if !(done1 > run1 && grant2 > done1) {
		t.Errorf("lease outcome row missing or outside its grant block (done1=%d):\n%s", done1, a)
	}
	if strings.Contains(a, "dur_ms") {
		t.Error("durations leaked into a canonical timeline")
	}
	if d := flight.MergeTimeline(timelineSources(), true); !strings.Contains(d, "dur_ms=7.500") {
		t.Errorf("-durations timeline misses the measured span:\n%s", d)
	}
}
