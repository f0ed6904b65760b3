package wire

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"hetwire"
)

// fuzzSeeds builds the seed corpus shared by both fuzz targets: valid
// frames of every type, a complete batch stream, two complete upload
// streams, two streams with a retired type byte, and a few
// deliberately-broken variants so the fuzzer starts on both sides of every
// validation. The committed corpus is exactly these seeds
// (TestFuzzCorpusMatchesSeeds).
func fuzzSeeds(t testing.TB) [][]byte {
	must := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatalf("building fuzz seed: %v", err)
		}
		return b
	}
	result := must(EncodeRunResult(sampleResponse()))
	multi := must(EncodeRunResult(sampleMultiResponse()))
	empty := must(EncodeRunResult(&hetwire.RunResponse{}))
	scenario := must(AppendScenario(nil, &Scenario{
		Index:   2,
		Request: hetwire.RunRequest{Benchmark: "gcc", N: 16000, Model: "VIII"},
		Result:  result,
		Cached:  true,
	}))
	failed := must(AppendScenario(nil, &Scenario{
		Index:   0,
		Request: hetwire.RunRequest{Benchmark: "mcf"},
		Error:   "deadline exceeded",
		Reason:  "cancelled",
	}))
	batch := must(EncodeBatch(&hetwire.BatchResponse{
		Scenarios: []hetwire.BatchScenario{
			{Index: 0, Request: hetwire.RunRequest{Benchmark: "gcc"}, Response: sampleResponse(), Cached: true},
			{Index: 1, Request: hetwire.RunRequest{Benchmark: "mcf"}, Error: "boom", Reason: "internal"},
		},
		Completed: 1,
		Failed:    1,
		CacheHits: 1,
	}))
	// Type 0x05 once framed trace JSONL lines; decoders must reject it.
	retired := must(appendFrame(nil, 0x05, 0, 0, 0, []byte(`{"schema":"hetwire-trace/v1"}`)))
	retired = must(appendFrame(retired, 0x05, 0, 1, 0, []byte(`{"cycle":1}`)))
	uploadHdr := must(AppendUploadHeader(nil, &UploadHeader{
		NodeID: "n1", LeaseID: "l1", JobID: "j1",
		Spans: []SpanMS{{Name: "node_sim", DurMS: 3.5}},
	}))
	uploadRes := must(EncodeUpload(&UploadHeader{NodeID: "n1", LeaseID: "l1", JobID: "j1"}, []Scenario{
		{Index: 4, Request: hetwire.RunRequest{Benchmark: "gzip", Model: "I", N: 5000}, Result: result},
	}))
	uploadErr := must(EncodeUpload(&UploadHeader{NodeID: "n1", LeaseID: "l1", JobID: "j1"}, []Scenario{
		{Index: 5, Request: hetwire.RunRequest{Benchmark: "gzip", Model: "I", N: 6000}, Error: "boom", Reason: "internal"},
	}))
	// Type 0x07 once carried each scenario of an upload, after its header.
	retiredUpload := must(appendFrame(append([]byte(nil), uploadHdr...), 0x07, 0, 4, 0, result))
	bhdr := must(AppendBatchHeader(nil, 3))
	btrl := must(AppendBatchTrailer(nil, BatchTrailer{Total: 3, Completed: 2, Failed: 0, CacheHits: 1}))

	torn := append([]byte(nil), result[:len(result)-5]...)
	corrupt := append([]byte(nil), result...)
	corrupt[HeaderSize+3] ^= 0xff
	badMagic := append([]byte(nil), result...)
	badMagic[0] = 'X'

	return [][]byte{
		result, multi, empty, scenario, failed, batch,
		retired, uploadHdr, uploadRes, uploadErr, bhdr, btrl,
		torn, corrupt, badMagic,
		nil, []byte("HWB1"), []byte(`{"ipc":1}`),
		retiredUpload,
	}
}

// FuzzWireDecode drives every decoder over arbitrary bytes. The contract
// under test: no decoder panics, and any input a decoder accepts re-encodes
// to exactly the bytes that were decoded — the canonical-encoding property
// that upload idempotency and the golden-wire fixtures rest on.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeRunResult(data); err == nil {
			again, err := EncodeRunResult(r)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted run result does not re-encode identically (%v)", err)
			}
		}
		if sc, err := DecodeScenario(data); err == nil {
			again, err := AppendScenario(nil, sc)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted scenario does not re-encode identically (%v)", err)
			}
		}
		if total, err := DecodeBatchHeader(data); err == nil {
			again, err := AppendBatchHeader(nil, total)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted batch header does not re-encode identically (%v)", err)
			}
		}
		if tr, err := DecodeBatchTrailer(data); err == nil {
			again, err := AppendBatchTrailer(nil, tr)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted batch trailer does not re-encode identically (%v)", err)
			}
		}
		if uh, err := DecodeUploadHeader(data); err == nil {
			again, err := AppendUploadHeader(nil, uh)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted upload header does not re-encode identically (%v)", err)
			}
		}
		if uh, scenarios, err := DecodeUpload(data); err == nil {
			again, err := EncodeUpload(uh, scenarios)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted upload stream does not re-encode identically (%v)", err)
			}
		}
		if resp, err := DecodeBatch(data); err == nil {
			again, err := EncodeBatch(resp)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted batch stream does not re-encode identically (%v)", err)
			}
		}
	})
}

// FuzzWireFrameSplit pins the agreement between the three frame walkers:
// Count, Split, and the streaming Reader see the same frame boundaries on
// the same input, and a buffer the full batch decoder accepts counts to
// exactly its frame total. Routing decisions made from headers alone can
// therefore never disagree with a consumer that decodes everything.
func FuzzWireFrameSplit(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, errC := Count(data)
		frames, errS := Split(data)
		if (errC == nil) != (errS == nil) {
			t.Fatalf("Count err=%v but Split err=%v", errC, errS)
		}
		if errC != nil {
			// A buffer the header walk rejects must also fail the reader
			// (it validates strictly more) and the full decoder.
			if readsCleanly(data) {
				t.Fatal("Reader accepted a buffer Count rejected")
			}
			if _, err := DecodeBatch(data); err == nil {
				t.Fatal("DecodeBatch accepted a buffer Count rejected")
			}
			return
		}
		if n != len(frames) {
			t.Fatalf("Count = %d but Split yielded %d frames", n, len(frames))
		}
		total := 0
		for _, fr := range frames {
			total += len(fr)
		}
		if total != len(data) {
			t.Fatalf("frames cover %d of %d bytes", total, len(data))
		}
		// The reader validates CRCs on top of the header walk: it either
		// fails, or agrees byte-for-byte with Split.
		rd := NewReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			_, fr, err := rd.Next()
			if err == io.EOF {
				if i != n {
					t.Fatalf("Reader yielded %d frames, Count said %d", i, n)
				}
				break
			}
			if err != nil {
				break
			}
			if i >= n || !bytes.Equal(fr, frames[i]) {
				t.Fatalf("Reader frame %d disagrees with Split", i)
			}
		}
		if resp, err := DecodeBatch(data); err == nil {
			if n != len(resp.Scenarios)+2 {
				t.Fatalf("batch of %d scenarios counted %d frames", len(resp.Scenarios), n)
			}
		}
	})
}

// readsCleanly reports whether a frame Reader consumes data to a clean EOF.
func readsCleanly(data []byte) bool {
	rd := NewReader(bytes.NewReader(data))
	for {
		_, _, err := rd.Next()
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
}

var updateWireSeeds = flag.Bool("update-wire-seeds", false,
	"rewrite the committed testdata/fuzz seed corpus for the wire fuzz targets")

// TestUpdateFuzzSeeds materialises fuzzSeeds into the committed corpus
// (testdata/fuzz/<Target>/) in the `go test fuzz v1` format, so CI fuzzing
// starts from real frames without re-running this writer.
func TestUpdateFuzzSeeds(t *testing.T) {
	if !*updateWireSeeds {
		t.Skip("pass -update-wire-seeds to rewrite the seed corpus")
	}
	for _, target := range []string{"FuzzWireDecode", "FuzzWireFrameSplit"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range fuzzSeeds(t) {
			if err := os.WriteFile(filepath.Join(dir, seedName(i)), seedFile(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// seedName and seedFile are seed i's corpus file name and its contents in
// the `go test fuzz v1` format.
func seedName(i int) string { return fmt.Sprintf("seed-%02d", i) }

func seedFile(seed []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n")
}

// TestFuzzCorpusMatchesSeeds: both wire targets' committed corpus is
// fuzzSeeds, file for file, so -update-wire-seeds drops no pin.
func TestFuzzCorpusMatchesSeeds(t *testing.T) {
	seeds := fuzzSeeds(t)
	for _, target := range []string{"FuzzWireDecode", "FuzzWireFrameSplit"} {
		dir := filepath.Join("testdata", "fuzz", target)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(seeds) {
			t.Errorf("%s holds %d files, fuzzSeeds %d", dir, len(files), len(seeds))
		}
		for i, seed := range seeds {
			got, err := os.ReadFile(filepath.Join(dir, seedName(i)))
			if err != nil || !bytes.Equal(got, seedFile(seed)) {
				t.Errorf("%s/%s is not fuzzSeeds[%d] (err %v)", dir, seedName(i), i, err)
			}
		}
	}
}
