package hetwire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// ConfigHash returns the identity of a machine configuration: the SHA-256
// of the Config value's JSON encoding, hex-encoded. The encoding covers
// every exported field by construction, so two configs hash equally exactly
// when they are equal, however either was built — the property the result
// caches, the cluster fingerprint and idempotency keys rely on.
func ConfigHash(cfg Config) string {
	raw, err := json.Marshal(cfg)
	if err != nil {
		// Config contains only integers and booleans; encoding cannot fail.
		panic("hetwire: ConfigHash encode: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
