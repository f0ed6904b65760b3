package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hetwire"
	"hetwire/internal/cluster"
	"hetwire/internal/wire"
)

// fuzzClusterHandler builds one coordinator-mode handler shared by every fuzz
// iteration: constructing a Server per input would dominate the fuzz loop.
// The server is never shut down — the fuzz process exit reclaims it. Node
// n-0001, the four-scenario job cj-000001 and its lease l-000001 exist from
// the start (DeadAfter keeps the node alive for the whole run), so upload
// inputs reach the coordinator's slot table instead of stopping at
// unknown_node.
var fuzzClusterHandler = sync.OnceValue(func() http.Handler {
	s := New(Options{Workers: 1, Cluster: &ClusterOptions{Token: fuzzClusterToken, DeadAfter: time.Hour}})
	if _, err := s.coord.Register(&cluster.RegisterRequest{
		Name: "fuzz", Protocol: cluster.ProtocolVersion, CompatHash: cluster.CompatHash(),
	}); err != nil {
		panic(err)
	}
	keys := make([]string, len(fuzzJobScenarios))
	for i := range fuzzJobScenarios {
		var err error
		if keys[i], err = fuzzJobScenarios[i].CacheKey(); err != nil {
			panic(err)
		}
	}
	s.coord.Submit("cj-000001", fuzzJobScenarios, keys, []int{0, 1, 2, 3}, "", "", nil)
	if _, err := s.coord.Lease(fuzzDone, &cluster.LeaseRequest{NodeID: "n-0001"}); err != nil {
		panic(err)
	}
	return s.Handler()
})

// fuzzDone is an already-cancelled context. Every fuzz request carries it, so
// a lease input that finds no pending work answers idle at once instead of
// holding the exec for the handler's full lease wait.
var fuzzDone = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// fuzzJobScenarios is the expansion of job cj-000001.
var fuzzJobScenarios = []hetwire.RunRequest{
	{Benchmark: "gzip", Model: "I", N: 1000},
	{Benchmark: "gzip", Model: "I", N: 2000},
	{Benchmark: "gzip", Model: "I", N: 3000},
	{Benchmark: "gzip", Model: "I", N: 4000},
}

// fuzzUploadStream is a valid upload for job cj-000001: a header, a result
// and a scenario error, each carrying its slot's request.
func fuzzUploadStream(f *testing.F) []byte {
	frame, err := wire.EncodeRunResult(&hetwire.RunResponse{Benchmark: "gzip", Model: "I", N: 1000, IPC: 1.25})
	if err != nil {
		f.Fatal(err)
	}
	stream, err := wire.EncodeUpload(
		&wire.UploadHeader{NodeID: "n-0001", LeaseID: "l-000001", JobID: "cj-000001",
			Spans: []wire.SpanMS{{Name: cluster.SpanSim, DurMS: 2}}},
		[]wire.Scenario{
			{Index: 0, Request: fuzzJobScenarios[0], Result: frame},
			{Index: 2, Request: fuzzJobScenarios[2], Error: "simulated failure", Reason: "internal"},
		})
	if err != nil {
		f.Fatal(err)
	}
	return stream
}

const fuzzClusterToken = "fuzz-cluster-secret"

// clusterFuzzEndpoints maps the fuzz selector byte onto the protocol surface.
var clusterFuzzEndpoints = []string{
	"/v1/cluster/register",
	"/v1/cluster/heartbeat",
	"/v1/cluster/lease",
	"/v1/cluster/upload",
}

// FuzzClusterProtocol throws arbitrary bodies at every cluster endpoint and
// requires the coordinator to stay up: no panic (a panic fails the fuzz run),
// no 5xx, and every rejection carries a machine-readable reason code. Bodies
// are sent authenticated, with the content type a node uses on that
// endpoint, so they reach the decoder and the coordinator's validation, not
// just the auth gate.
func FuzzClusterProtocol(f *testing.F) {
	upload := fuzzUploadStream(f)
	corrupt := append([]byte(nil), upload...)
	corrupt[len(corrupt)-1] ^= 0xff
	// Structurally valid shapes, boundary junk, and type confusion.
	f.Add(uint8(0), []byte(`{}`))
	f.Add(uint8(0), []byte(`{"name":"n","protocol":1,"compat_hash":"nope"}`))
	f.Add(uint8(0), []byte(`{not json`))
	f.Add(uint8(1), []byte(`{"node_id":"n-9999"}`))
	f.Add(uint8(1), []byte(`{"node_id":12345}`))
	f.Add(uint8(2), []byte(`{"node_id":"n-0001","max":-7}`))
	f.Add(uint8(2), []byte(`null`))
	f.Add(uint8(1), []byte(`{"node_id":"n-0001","events":[{"seq":1,"kind":"span"}]}`))
	f.Add(uint8(3), upload)
	f.Add(uint8(3), corrupt)
	f.Add(uint8(3), []byte("\x00\xff\xfe"))
	f.Add(uint8(255), []byte(``))

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := clusterFuzzEndpoints[int(which)%len(clusterFuzzEndpoints)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(fuzzDone)
		req.Header.Set("Content-Type", "application/json")
		if path == "/v1/cluster/upload" {
			req.Header.Set("Content-Type", wire.ContentType)
		}
		req.Header.Set("Authorization", "Bearer "+fuzzClusterToken)
		rec := httptest.NewRecorder()
		fuzzClusterHandler().ServeHTTP(rec, req)

		if rec.Code >= 500 {
			t.Fatalf("%s: coordinator answered %d to %q", path, rec.Code, body)
		}
		if rec.Code >= 400 {
			var msg struct {
				Error  string `json:"error"`
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil {
				t.Fatalf("%s: %d rejection is not JSON (%v): %q", path, rec.Code, err, rec.Body.String())
			}
			if msg.Reason == "" {
				t.Fatalf("%s: %d rejection has no machine-readable reason: %q", path, rec.Code, rec.Body.String())
			}
		}
	})
}
