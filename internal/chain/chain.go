// Package chain is Heimdall's one tamper-evident log: an append-only
// SHA-256 hash chain whose links are authenticated with an HMAC key held by
// the policy enforcer's trusted execution environment (paper §4.3). The
// audit trail (internal/audit) and the commit journal (internal/journal)
// are this log over two payload types; sealing, verifying, exporting and
// importing a link happen here and nowhere else.
//
// The content rule, stated once: a link's hash covers the JSON encoding of
// the link itself with Hash and MAC empty, fields in declaration order —
// index, time, the payload, prevHash. The encoding is injective (every
// string is quoted, every field is named), so no two links that differ in
// any field share a hash. The MAC is the HMAC-SHA256 of that hash, in
// lower-case hex; a link whose stored MAC is any other string is forged.
package chain

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
	"time"
)

// Header opens every link: its position in the chain and when it was
// appended. A payload type embeds it first.
type Header struct {
	Index int       `json:"index"`
	Time  time.Time `json:"time"`
}

// Seal closes every link: the predecessor's hash, the link's own content
// hash and the HMAC of that hash. A payload type embeds it last.
type Seal struct {
	PrevHash string `json:"prevHash"`
	Hash     string `json:"hash"`
	MAC      string `json:"mac"`
}

func (h *Header) header() *Header { return h }
func (s *Seal) seal() *Seal       { return s }

// Link is satisfied by *T for every struct T that embeds Header and Seal:
// the embedded methods are how the log reaches the chain fields of a
// payload type it knows nothing else about.
type Link[T any] interface {
	*T
	header() *Header
	seal() *Seal
}

// Head is a compact claim about a chain's tip — what replicas exchange
// during cross-audit. Index is -1 for an empty chain.
type Head struct {
	Index int    `json:"index"`
	Hash  string `json:"hash"`
}

// HeadOf returns the chain tip of a link slice.
func HeadOf[T any, P Link[T]](links []T) Head {
	if len(links) == 0 {
		return Head{Index: -1}
	}
	last := P(&links[len(links)-1])
	return Head{Index: last.header().Index, Hash: last.seal().Hash}
}

// digest returns the hex content hash of a link whose Hash and MAC are
// empty, and the hex HMAC of that hash.
func digest[T any, P Link[T]](mac hash.Hash, p P) (sum, tag string) {
	content, err := json.Marshal(p)
	if err != nil {
		// Payloads are plain data; marshal cannot fail for values the
		// enforcer constructs. Panic beats silently unverifiable links.
		panic(fmt.Sprintf("chain: marshal link: %v", err))
	}
	h := sha256.Sum256(content)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], h[:])
	sum = string(hx[:])
	mac.Reset()
	mac.Write(h[:])
	hex.Encode(hx[:], mac.Sum(h[:0]))
	return sum, string(hx[:])
}

// stamp seals p as link i of a chain whose previous link hashes to prev.
func stamp[T any, P Link[T]](mac hash.Hash, p P, i int, prev string) {
	p.header().Index = i
	s := p.seal()
	*s = Seal{PrevHash: prev}
	s.Hash, s.MAC = digest(mac, p)
}

// admit is the one rule by which an already-sealed link is accepted as
// link i of a chain whose previous link hashes to prev. Verify, Import and
// AppendVerbatim all go through it, so a link a replica mirrors is a link
// its chain verifies. The MAC is compared as the string Append would have
// written, not as the bytes it decodes to: hex decoding accepts either
// case, and no byte of an exported MAC may change without failing here.
func admit[T any, P Link[T]](mac hash.Hash, p P, i int, prev string) error {
	if got := p.header().Index; got != i {
		return fmt.Errorf("chain: link %d has index %d (reordered or truncated)", i, got)
	}
	if p.seal().PrevHash != prev {
		return fmt.Errorf("chain: link %d does not extend its predecessor (chain break)", i)
	}
	c := *p
	s := P(&c).seal()
	s.Hash, s.MAC = "", ""
	sum, tag := digest(mac, P(&c))
	if sum != p.seal().Hash {
		return fmt.Errorf("chain: link %d content hash mismatch (tampered)", i)
	}
	if !hmac.Equal([]byte(tag), []byte(p.seal().MAC)) {
		return fmt.Errorf("chain: link %d MAC mismatch (forged)", i)
	}
	return nil
}

func verify[T any, P Link[T]](mac hash.Hash, links []T) error {
	prev := ""
	for i := range links {
		p := P(&links[i])
		if err := admit(mac, p, i, prev); err != nil {
			return err
		}
		prev = p.seal().Hash
	}
	return nil
}

// Verify checks a detached link slice: index continuity, prev-hash links,
// every content hash and every HMAC. It returns the first inconsistency.
// Every prefix of a valid chain is a valid chain — the shape a crash
// leaves — while a dropped, reordered or edited link is not.
func Verify[T any, P Link[T]](links []T, key []byte) error {
	return verify[T, P](hmac.New(sha256.New, key), links)
}

// Rechain recomputes every index, hash, prev-hash link and MAC of a link
// slice in place — exactly the forgery a compromised replica that holds
// the key can produce. Verify cannot catch a rechained chain (the insider
// has the key); majority cross-audit between replicas can, which is why
// Byzantine drills need this helper to simulate the attack.
func Rechain[T any, P Link[T]](links []T, key []byte) {
	mac := hmac.New(sha256.New, key)
	prev := ""
	for i := range links {
		p := P(&links[i])
		stamp(mac, p, i, prev)
		prev = p.seal().Hash
	}
}

// Decode parses an export without authenticating it. Parsing is strict —
// one JSON document, no unknown fields, nothing after it — so every byte
// of an export is covered by either the parser or the chain: a field name
// altered in transit must not silently degrade to the field's zero value.
func Decode[T any, P Link[T]](data []byte) ([]T, error) {
	var links []T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&links); err != nil {
		return nil, fmt.Errorf("chain: parsing export: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("chain: trailing data after export")
	}
	return links, nil
}

// Log is an append-only chain of links of type T. It is safe for
// concurrent use.
type Log[T any, P Link[T]] struct {
	mu       sync.Mutex
	mac      hash.Hash // HMAC-SHA256 under the log's key, Reset per use under mu
	links    []T
	now      func() time.Time
	onAppend func(*T)
}

// New creates a log authenticated with the given HMAC key. The key is what
// makes the log tamper-evident against anyone who can rewrite storage but
// does not hold it — in Heimdall it never leaves the enforcer's enclave.
func New[T any, P Link[T]](key []byte) *Log[T, P] {
	return &Log[T, P]{mac: hmac.New(sha256.New, key), now: time.Now}
}

// FromLinks verifies a detached chain against the key and returns a log
// holding a copy of it. Tampered chains are rejected.
func FromLinks[T any, P Link[T]](key []byte, links []T) (*Log[T, P], error) {
	l := New[T, P](key)
	if err := verify[T, P](l.mac, links); err != nil {
		return nil, err
	}
	l.links = append(l.links, links...)
	return l, nil
}

// Import parses an export strictly (see Decode) and verifies it against
// the key before returning it.
func Import[T any, P Link[T]](key, data []byte) (*Log[T, P], error) {
	links, err := Decode[T, P](data)
	if err != nil {
		return nil, err
	}
	return FromLinks[T, P](key, links)
}

// SetClock replaces the time source (tests and deterministic replays).
func (l *Log[T, P]) SetClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
}

// OnAppend sets the function called with every link that joins the chain,
// under the log's lock: what it observes (the chain length, say) is never
// older than what an earlier call observed. fn must not call the log.
func (l *Log[T, P]) OnAppend(fn func(*T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onAppend = fn
}

func (l *Log[T, P]) appended() {
	if l.onAppend != nil {
		l.onAppend(&l.links[len(l.links)-1])
	}
}

// Append adds v to the chain, filling in index, time, hashes and MAC, and
// returns the completed link.
func (l *Log[T, P]) Append(v T) T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, prev := len(l.links), HeadOf[T, P](l.links).Hash
	l.links = append(l.links, v)
	p := P(&l.links[n])
	p.header().Time = l.now()
	stamp(l.mac, p, n, prev)
	l.appended()
	return l.links[n]
}

// AppendVerbatim appends an already-sealed link without re-stamping it —
// the replica-mirroring primitive: an enforcer replica copies the
// coordinator's links byte for byte, so honest replica chains are
// bit-identical by construction. The link must extend the current head
// exactly and authenticate under the log's key (see admit); any other
// link is refused, which is how a replica notices it has lagged or
// diverged.
func (l *Log[T, P]) AppendVerbatim(v T) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := admit(l.mac, P(&v), len(l.links), HeadOf[T, P](l.links).Hash); err != nil {
		return err
	}
	l.links = append(l.links, v)
	l.appended()
	return nil
}

// Links returns a copy of the chain.
func (l *Log[T, P]) Links() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]T, len(l.links))
	copy(out, l.links)
	return out
}

// Len returns the number of links.
func (l *Log[T, P]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.links)
}

// View calls fn with the chain itself, under the log's lock, for scans
// that should not pay for a copy. fn must neither modify nor keep the
// slice, nor call the log.
func (l *Log[T, P]) View(fn func(links []T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.links)
}

// Verify checks the log's own chain the way the package-level Verify
// checks a detached one.
func (l *Log[T, P]) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return verify[T, P](l.mac, l.links)
}

// Export serialises the chain as JSON, for offline review and for the
// recovering enforcer; Import authenticates it before anything trusts it.
func (l *Log[T, P]) Export() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return json.MarshalIndent(l.links, "", "  ")
}
