package hetwire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestConfigHashMemo: a memoized hash is the hash of the encoding, and the
// memo stays within its cap however many distinct configs pass through.
func TestConfigHashMemo(t *testing.T) {
	cfg := DefaultConfig().WithModel(ModelVII)
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	want := hex.EncodeToString(sum[:])
	for i := 0; i < 2; i++ { // the second call is served by the memo
		if got := ConfigHash(cfg); got != want {
			t.Fatalf("call %d: ConfigHash = %s, want %s", i, got, want)
		}
	}
	for i := 0; i < 2*maxConfigHashes; i++ {
		c := cfg
		c.Core.MemLatency = 300 + i
		ConfigHash(c)
	}
	configHashes.Lock()
	n := len(configHashes.m)
	configHashes.Unlock()
	if n > maxConfigHashes {
		t.Errorf("memo holds %d configs, cap %d", n, maxConfigHashes)
	}
	if got := ConfigHash(cfg); got != want {
		t.Errorf("after the memo turned over: ConfigHash = %s, want %s", got, want)
	}
}

// TestRequestResolutionAllocs: resolving and validating a request that names
// a model and carries no config document allocates nothing, and its cache
// key costs only the hash and its hex encoding.
func TestRequestResolutionAllocs(t *testing.T) {
	req := RunRequest{Benchmark: "gcc", Model: "VII", N: 20_000, Clusters: 16}
	if n := testing.AllocsPerRun(100, func() { resolved, _ = req.ResolveConfig() }); n != 0 {
		t.Errorf("ResolveConfig allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = req.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = req.CacheKey() }); n > 4 {
		t.Errorf("CacheKey allocates %v times per call, want at most 4", n)
	}
}

// resolved keeps ResolveConfig's result live, as a caller's would be.
var resolved Config
