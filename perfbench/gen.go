package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hetwire"
)

// Everything a workload sends is generated here from the seed; the program
// under test only ever receives the resulting requests. Each workload draws
// from its own PCG stream so adding a draw to one cannot shift another.

var models = []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"}

var clusterCounts = []int{4, 16}

// programs lists every workload the simulator accepts: the 23 SPEC2K-like
// profiles followed by the 5 kernels.
func programs() []string {
	return append(hetwire.Benchmarks(), hetwire.Kernels()...)
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// --- sweep ---

const (
	sweepProgramRepeats = 5      // each program appears this often per batch
	sweepMinN           = 15_000 // per-scenario instruction budget range
	sweepMaxN           = 25_000
	sweepGolden         = 2 // corpus scenarios appended to every batch
	goldenN             = 16_000
)

// goldenRef is one sweep scenario whose ResultHash testdata/golden pins.
type goldenRef struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
	Hash  string `json:"hash"`
}

type sweepInput struct {
	Batch  hetwire.BatchRequest `json:"batch"`
	Golden []goldenRef          `json:"golden"`
}

// genSweep builds the seeded batch. Its composition is balanced so that
// seeds differ in pairing and budgets, not in mix: each of the 28 programs
// appears sweepProgramRepeats times and each of the 20 (model, topology)
// configurations equally often (140 = 28 x 5 = 20 x 7), paired at random,
// with budgets uniform in [sweepMinN, sweepMaxN]. Two golden-corpus
// scenarios ride at the end so the batch checks itself against the
// repository's pinned hashes.
func genSweep(seed uint64, golden map[string]string, parallelism int) (*sweepInput, error) {
	r := newRand(seed, 1)
	var progs []string
	for i := 0; i < sweepProgramRepeats; i++ {
		progs = append(progs, programs()...)
	}
	type config struct {
		model    string
		clusters int
	}
	var configs []config
	for len(configs) < len(progs) {
		for _, m := range models {
			for _, cl := range clusterCounts {
				configs = append(configs, config{m, cl})
			}
		}
	}
	if len(configs) != len(progs) {
		return nil, fmt.Errorf("sweep: %d programs do not pair evenly with %d configurations", len(progs), len(configs))
	}
	r.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	r.Shuffle(len(configs), func(i, j int) { configs[i], configs[j] = configs[j], configs[i] })
	in := &sweepInput{Batch: hetwire.BatchRequest{Parallelism: parallelism}}
	for i, p := range progs {
		in.Batch.Scenarios = append(in.Batch.Scenarios, hetwire.RunRequest{
			Benchmark: p,
			Model:     configs[i].model,
			Clusters:  configs[i].clusters,
			N:         uint64(sweepMinN + r.IntN(sweepMaxN-sweepMinN+1)),
		})
	}
	keys := make([]string, 0, len(golden))
	for key := range golden {
		if strings.HasSuffix(key, fmt.Sprintf("/n=%d", goldenN)) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	if len(keys) < sweepGolden {
		return nil, fmt.Errorf("golden corpus has %d scenarios at n=%d, need %d", len(keys), goldenN, sweepGolden)
	}
	for _, i := range r.Perm(len(keys))[:sweepGolden] {
		req, err := goldenRequest(keys[i])
		if err != nil {
			return nil, err
		}
		in.Golden = append(in.Golden, goldenRef{Index: len(in.Batch.Scenarios), Key: keys[i], Hash: golden[keys[i]]})
		in.Batch.Scenarios = append(in.Batch.Scenarios, req)
	}
	return in, nil
}

// loadGolden reads testdata/golden under root into "model/topo/bench/n=N"
// keys.
func loadGolden(root string) (map[string]string, error) {
	files, err := filepath.Glob(filepath.Join(root, "testdata", "golden", "model_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no golden fixtures under %s", filepath.Join(root, "testdata", "golden"))
	}
	out := make(map[string]string)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var m map[string]string
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("golden fixture %s: %w", f, err)
		}
		model := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "model_"), ".json")
		for k, v := range m {
			out[model+"/"+k] = v
		}
	}
	return out, nil
}

// goldenRequest turns a "model/topo/bench/n=N" key back into its request.
func goldenRequest(key string) (hetwire.RunRequest, error) {
	var model, topo, bench string
	var n uint64
	parts := strings.Split(key, "/")
	if len(parts) != 4 {
		return hetwire.RunRequest{}, fmt.Errorf("golden key %q: want model/topo/bench/n=N", key)
	}
	model, topo, bench = parts[0], parts[1], parts[2]
	if _, err := fmt.Sscanf(parts[3], "n=%d", &n); err != nil {
		return hetwire.RunRequest{}, fmt.Errorf("golden key %q: %w", key, err)
	}
	req := hetwire.RunRequest{Benchmark: bench, Model: model, N: n}
	switch topo {
	case "crossbar4":
		req.Clusters = 4
	case "hierring16":
		req.Clusters = 16
	default:
		return hetwire.RunRequest{}, fmt.Errorf("golden key %q: unknown topology %q", key, topo)
	}
	return req, nil
}

// --- serve_hits ---

// hitSetSize is above the daemon's 1024-job retention window. hitZipfS is
// an unverified assumption: no traffic record exists to fit it to.
const (
	hitSetSize = 1536
	hitZipfS   = 1.05
)

var hitNs = []uint64{1000, 1500, 2000}

// Read paths a serve_hits request can take.
const (
	pathWire  = "wire"  // client.RunWire: binary frame, idempotency-keyed
	pathJSON  = "json"  // POST /v1/run, JSON, no idempotency key
	pathAsync = "async" // client.Run: submit, await, decode
)

// hitPaths are drawn with equal shares: nothing records how clients split
// their reads between the paths.
var hitPaths = []string{pathWire, pathJSON, pathAsync}

type hitDraw struct {
	Index int    `json:"index"`
	Path  string `json:"path"`
}

// genHitSet draws the result set filled during set-up: a seeded sample of
// distinct (program, model, clusters, n) requests.
func genHitSet(seed uint64) []hetwire.RunRequest {
	var all []hetwire.RunRequest
	for _, p := range programs() {
		for _, m := range models {
			for _, cl := range clusterCounts {
				for _, n := range hitNs {
					all = append(all, hetwire.RunRequest{Benchmark: p, Model: m, Clusters: cl, N: n})
				}
			}
		}
	}
	r := newRand(seed, 2)
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:hitSetSize]
}

// hitStream is one closed-loop client's endless seeded request sequence:
// Zipf-ranked indices into the hit set, each with a read path.
type hitStream struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newHitStream(seed uint64, client int) *hitStream {
	r := newRand(seed, 100+uint64(client))
	return &hitStream{r: r, zipf: rand.NewZipf(r, hitZipfS, 1, hitSetSize-1)}
}

func (s *hitStream) next() hitDraw {
	return hitDraw{Index: int(s.zipf.Uint64()), Path: hitPaths[s.r.IntN(len(hitPaths))]}
}

// --- serve_mix ---

// The serve_mix rates and budgets are unverified assumptions, not measured
// traffic: they were sized on a 2-CPU machine so that the daemon is busy
// but its backlog does not grow. Interactive requests split evenly between
// the sync and async paths.
const (
	mixInteractiveRate = 60 // interactive requests per second
	mixBulkRate        = 2  // bulk batch submissions per second
	mixBulkScenarios   = 4
	mixInteractiveMinN = 4_000
	mixInteractiveMaxN = 12_000
	mixBulkMinN        = 10_000
	mixBulkMaxN        = 20_000
	tenantInteractive  = "interactive"
	tenantBulk         = "bulk"
)

type mixEvent struct {
	Due    time.Duration         `json:"due"`
	Tenant string                `json:"tenant"`
	Path   string                `json:"path"` // wire|async for interactive, "" for bulk
	Run    *hetwire.RunRequest   `json:"run,omitempty"`
	Batch  *hetwire.BatchRequest `json:"batch,omitempty"`
}

// genMix draws the open-loop schedule for a window of length d (whole
// seconds): two Poisson streams merged by due time. Each second of the
// window holds exactly rate arrivals per stream at uniform times — a
// Poisson process conditioned on its count per second — so every seed, and
// every second of a run, offers the same load.
// Every interactive run and every bulk scenario gets an instruction budget
// no other request in the schedule (or in set-up) uses, so each one
// simulates.
func genMix(seed uint64, d time.Duration) []mixEvent {
	r := newRand(seed, 3)
	progs := programs()
	used := map[uint64]bool{}
	distinctN := func(lo, hi int) uint64 {
		n := uint64(lo + r.IntN(hi-lo+1))
		for used[n] {
			n++
		}
		used[n] = true
		return n
	}
	scenario := func(lo, hi int) hetwire.RunRequest {
		return hetwire.RunRequest{
			Benchmark: progs[r.IntN(len(progs))],
			Model:     models[r.IntN(len(models))],
			Clusters:  clusterCounts[r.IntN(len(clusterCounts))],
			N:         distinctN(lo, hi),
		}
	}
	arrivals := func(rate float64) []time.Duration {
		var ts []time.Duration
		for sec := time.Duration(0); sec+time.Second <= d; sec += time.Second {
			for i := 0; i < int(rate); i++ {
				ts = append(ts, sec+time.Duration(r.Int64N(int64(time.Second))))
			}
		}
		return ts
	}
	var evs []mixEvent
	for i, t := range arrivals(mixInteractiveRate) {
		run := scenario(mixInteractiveMinN, mixInteractiveMaxN)
		path := pathWire
		if i%2 == 1 {
			path = pathAsync
		}
		evs = append(evs, mixEvent{Due: t, Tenant: tenantInteractive, Path: path, Run: &run})
	}
	for _, t := range arrivals(mixBulkRate) {
		b := &hetwire.BatchRequest{}
		for i := 0; i < mixBulkScenarios; i++ {
			b.Scenarios = append(b.Scenarios, scenario(mixBulkMinN, mixBulkMaxN))
		}
		evs = append(evs, mixEvent{Due: t, Tenant: tenantBulk, Batch: b})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Due < evs[j].Due })
	return evs
}
