package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"heimdall/internal/config"
)

// ChangeSetDigest returns a canonical content digest of a change set: two
// change sets digest equal exactly when they would apply the same
// operations with the same payloads in the same order. The enforcer's
// review cache keys on it — two technicians replaying the same scripted
// ticket produce the same twin diff, so their reviews share one
// verification.
//
// The encoding is JSON over config.Change's exported payload (Go's
// encoder writes struct fields in declaration order and map keys sorted,
// so the bytes are deterministic for equal values), hashed with SHA-256.
func ChangeSetDigest(changes []config.Change) string {
	h := sha256.New()
	for i, c := range changes {
		b, err := json.Marshal(c)
		if err != nil {
			// config.Change holds only plain data (no channels, funcs or
			// cycles); Marshal cannot fail on it. Keep the digest total
			// anyway: fold the op identity in and move on.
			b = []byte(fmt.Sprintf("unencodable:%s:%s", c.Action(), c.Resource()))
		}
		fmt.Fprintf(h, "%d|", i)
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
