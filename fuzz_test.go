package hetwire

import (
	"context"
	"encoding/json"
	"testing"

	"hetwire/internal/core"
	"hetwire/internal/workload"
)

// FuzzConfigFromJSON exercises the config-file decoder with arbitrary
// documents. The decoder never panics; every configuration it accepts has a
// config document that decodes back to an equal Config, and simulates
// 2,000 instructions without a panic or run error and with every
// instruction's pipeline timing in order.
func FuzzConfigFromJSON(f *testing.F) {
	f.Add([]byte(`{"model":"I"}`))
	f.Add([]byte(`{"model":"V","clusters":16}`))
	f.Add([]byte(`{"model":"VIII","clusters":4,"latency_scale":2,"steering":"static-hash"}`))
	f.Add([]byte(`{"model":"VII","link_heterogeneous":true,"ls_bits":6,` +
		`"techniques":{"cache_pipeline":false,"pw_store_data":true},` +
		`"core_overrides":{"rob":256,"fetch_width":4}}`))
	f.Add([]byte(`{"model":"X","steering":"round-robin"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"model":"XI"}`))
	f.Add([]byte(`{"model":"I","clusters":7}`))
	// Past the bounds: the first three once ran the daemon out of memory,
	// the fourth aliased two in-flight cycles in the calendar ring.
	f.Add([]byte(`{"model":"I","core_overrides":{"rob":2000000000}}`))
	f.Add([]byte(`{"model":"I","core_overrides":{"memory_latency":2000000000}}`))
	f.Add([]byte(`{"model":"I","latency_scale":1000000000}`))
	f.Add([]byte(`{"model":"VII","core_overrides":{"memory_latency":8000}}`))
	// At each bound (see config.Config.Validate and sched.MaxAccessSpan).
	f.Add([]byte(`{"model":"VII","core_overrides":{"rob":8192}}`))
	f.Add([]byte(`{"model":"VII","core_overrides":{"fetch_width":255,"issue_queue":255,"registers":255}}`))
	f.Add([]byte(`{"model":"VII","core_overrides":{"l1d_latency":1712}}`))
	f.Add([]byte(`{"model":"VII","core_overrides":{"l2_latency":1736}}`))
	f.Add([]byte(`{"model":"VII","core_overrides":{"memory_latency":2006}}`))
	f.Add([]byte(`{"model":"VII","clusters":16,"core_overrides":{"memory_latency":1982}}`))
	f.Add([]byte(`{"model":"VII","latency_scale":285}`))
	f.Add([]byte(`{"model":"VII","clusters":16,"latency_scale":57}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := ConfigFromJSON(raw)
		if err != nil {
			return // rejected input; only panics are failures
		}
		doc, err := ConfigJSON(cfg)
		if err != nil {
			t.Fatalf("accepted config has no config document: %v\ninput: %s", err, raw)
		}
		back, err := ConfigFromJSON(doc)
		if err != nil {
			t.Fatalf("config document does not decode: %v\n%s", err, doc)
		}
		if back != cfg {
			t.Fatalf("round trip changed the config\ninput: %s\ndocument: %s", raw, doc)
		}
		simulateChecked(t, cfg, raw)
	})
}

// simulateChecked runs 2,000 instructions of one program on cfg and fails
// on a panic, a run error, or an instruction whose pipeline timing is out
// of order: sequence numbers strictly increase, commits never go back, each
// instruction is fetched, dispatched, issued and completed in that order
// and before it commits, and it dispatches only after the instruction
// ROBSize older has committed (the ROB never holds more than its size).
func simulateChecked(t *testing.T, cfg Config, raw []byte) {
	progs := []string{"gcc", "mcf", "swim"}
	prof, _ := workload.ByName(progs[len(raw)%len(progs)])
	p := core.New(cfg)
	var last core.InstrTiming
	first := true
	commits := make([]uint64, cfg.Core.ROBSize) // ring of the last ROBSize commit cycles
	n := 0
	p.Observer = func(it core.InstrTiming) {
		if !(it.Fetch <= it.Dispatch && it.Dispatch <= it.Issue &&
			it.Issue <= it.Complete && it.Complete < it.Commit) {
			t.Fatalf("stages out of order: %+v\ninput: %s", it, raw)
		}
		if !first && (it.Seq <= last.Seq || it.Commit < last.Commit) {
			t.Fatalf("instruction %+v follows %+v\ninput: %s", it, last, raw)
		}
		slot := &commits[n%len(commits)]
		if n >= len(commits) && it.Dispatch <= *slot {
			t.Fatalf("instruction %+v dispatched before the one %d older committed at %d\ninput: %s",
				it, len(commits), *slot, raw)
		}
		*slot = it.Commit
		n++
		last, first = it, false
	}
	if _, err := p.RunContext(context.Background(), workload.NewGenerator(prof), 2_000); err != nil {
		t.Fatalf("run: %v\ninput: %s", err, raw)
	}
	if first {
		t.Fatalf("no instruction committed\ninput: %s", raw)
	}
}

// FuzzBatchRequestValidate exercises batch admission with arbitrary batch
// documents. Validate must never panic, and three invariants hold for every
// input: a batch Validate accepts must Expand to within MaxSweepPoints with
// every scenario individually valid; expansion must be deterministic (two
// Expand calls agree); and validation must not mutate the request.
func FuzzBatchRequestValidate(f *testing.F) {
	f.Add([]byte(`{"scenarios":[{"benchmark":"gcc","n":5000}]}`))
	f.Add([]byte(`{"sweep":{"models":["I","V"],"benchmarks":["gcc","mcf"],"clusters":[4,16],"ns":[4000,16000]}}`))
	f.Add([]byte(`{"scenarios":[{"benchmark":"gcc"}],"sweep":{"models":["VIII"],"benchmarks":["swim"]}}`))
	f.Add([]byte(`{"sweep":{"models":["I"],"benchmarks":["gcc"],"ns":[1,2,3,4,5,6,7,8,9,10]},"parallelism":4}`))
	f.Add([]byte(`{}`))                                                             // empty: no scenarios
	f.Add([]byte(`{"parallelism":-1,"scenarios":[{"benchmark":"gcc"}]}`))           // negative parallelism
	f.Add([]byte(`{"scenarios":[{"benchmark":"no-such-benchmark"}]}`))              // bad scenario
	f.Add([]byte(`{"sweep":{"models":["I"],"benchmarks":["gcc"],"clusters":[7]}}`)) // bad clusters
	f.Add([]byte(`{"sweep":{"benchmarks":["gcc"]}}`))                               // missing models axis
	f.Add([]byte(`{"sweep":{"models":["I","V","VIII","X"],"benchmarks":["gcc","mcf","swim","gzip"],` +
		`"clusters":[4,16],"ns":[1000,2000,3000,4000,5000,6000,7000,8000,9000,10000,11000,12000,13000,` +
		`14000,15000,16000,17000,18000,19000,20000,21000,22000,23000,24000,25000,26000,27000,28000,29000,` +
		`30000,31000,32000]}}`)) // 4*4*2*33 = 1056 > MaxSweepPoints
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req BatchRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return
		}
		before, err := json.Marshal(req)
		if err != nil {
			return // unmarshalable exotic values; not this fuzzer's concern
		}
		if err := req.Validate(); err != nil {
			if ReasonCode(err) == "" {
				t.Fatalf("rejection without a reason code: %v", err)
			}
			return
		}
		after, _ := json.Marshal(req)
		if string(before) != string(after) {
			t.Fatalf("Validate mutated the request:\nbefore %s\nafter  %s", before, after)
		}
		reqs, err := req.Expand()
		if err != nil {
			t.Fatalf("validated batch fails to expand: %v\nrequest: %s", err, raw)
		}
		if len(reqs) == 0 || len(reqs) > MaxSweepPoints {
			t.Fatalf("validated batch expands to %d scenarios\nrequest: %s", len(reqs), raw)
		}
		for i := range reqs {
			if err := reqs[i].Validate(); err != nil {
				t.Fatalf("validated batch contains invalid scenario %d: %v\nrequest: %s", i, err, raw)
			}
		}
		reqs2, err := req.Expand()
		if err != nil || len(reqs2) != len(reqs) {
			t.Fatalf("expansion not deterministic: %d vs %d scenarios (err %v)", len(reqs), len(reqs2), err)
		}
	})
}

// FuzzRunRequestValidate exercises the serving API's request validation with
// arbitrary request documents. Validate must never panic, and any request it
// accepts must also produce a cache key (the daemon calls CacheKey right
// after Validate; an accept/no-key split would 500 at serve time).
func FuzzRunRequestValidate(f *testing.F) {
	f.Add([]byte(`{"benchmark":"gcc"}`))
	f.Add([]byte(`{"benchmark":"gzip","n":5000,"model":"V","clusters":16}`))
	f.Add([]byte(`{"benchmarks":["gcc","mcf","swim","gzip"],"clusters":16}`))
	f.Add([]byte(`{"benchmark":"pchase","config":{"model":"VII","clusters":4}}`))
	f.Add([]byte(`{"benchmark":"gcc","benchmarks":["mcf"]}`))
	f.Add([]byte(`{"benchmark":"nonexistent"}`))
	f.Add([]byte(`{"n":1}`))
	f.Add([]byte(`{"benchmark":"gcc","clusters":5}`))
	f.Add([]byte(`{"benchmark":"gcc","n":99999999999}`))                       // absurd instruction budget
	f.Add([]byte(`{"benchmarks":["gcc","mcf","swim","gzip","mesa","vortex",` + // > MaxBenchmarks
		`"gcc","mcf","swim","gzip","mesa","vortex","gcc","mcf","swim","gzip","mesa"]}`))
	f.Add([]byte(`{"benchmarks":["gcc","mcf","swim","gzip","mesa"],"clusters":4}`)) // programs > clusters
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req RunRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return // rejected request; only panics are failures
		}
		key, err := req.CacheKey()
		if err != nil {
			t.Fatalf("validated request has no cache key: %v\nrequest: %s", err, raw)
		}
		key2, err := req.CacheKey()
		if err != nil || key != key2 {
			t.Fatalf("cache key not stable: %q vs %q (err %v)", key, key2, err)
		}
	})
}
