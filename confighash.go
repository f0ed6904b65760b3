package hetwire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
)

// maxConfigHashes caps the ConfigHash memo. A daemon serves a handful of
// machines (the ten models on two topologies, plus whatever core overrides
// its clients send), so the cap is reached only by a stream of distinct
// configs; the memo then starts over rather than grow.
const maxConfigHashes = 1024

// configHashes memoizes ConfigHash per Config value: a run request's cache
// key is computed on every request, on the client and on the daemon, and a
// map lookup replaces a JSON encoding and a SHA-256.
var configHashes = struct {
	sync.Mutex
	m map[Config]string
}{m: make(map[Config]string)}

// ConfigHash returns the identity of a machine configuration: the SHA-256
// of the Config value's JSON encoding, hex-encoded. The encoding covers
// every exported field by construction, so two configs hash equally exactly
// when they are equal, however either was built — the property the result
// caches, the cluster fingerprint and idempotency keys rely on.
func ConfigHash(cfg Config) string {
	configHashes.Lock()
	h, ok := configHashes.m[cfg]
	configHashes.Unlock()
	if ok {
		return h
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		// Config contains only integers and booleans; encoding cannot fail.
		panic("hetwire: ConfigHash encode: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	h = hex.EncodeToString(sum[:])
	configHashes.Lock()
	if len(configHashes.m) >= maxConfigHashes {
		clear(configHashes.m)
	}
	configHashes.m[cfg] = h
	configHashes.Unlock()
	return h
}
