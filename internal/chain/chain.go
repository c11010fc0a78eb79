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
//
// The rule is written by hand, without reflection: AppendContent writes
// the frame and each payload type its own fields (Link.AppendFields), byte
// for byte what encoding/json.Marshal writes for the link. json.Marshal is
// the oracle both are tested against, not the encoder.
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
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
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

// Link is satisfied by *T for every struct T that embeds Header and Seal
// and encodes its own payload: the embedded methods are how the log reaches
// the chain fields of a payload type it knows nothing else about.
type Link[T any] interface {
	*T
	header() *Header
	seal() *Seal
	// AppendFields appends the payload's fields as encoding/json.Marshal
	// writes them inside the link, omitempty rules included: each one
	// `"name":value,` in declaration order, the comma after every field.
	AppendFields(dst []byte) []byte
}

// Head is a compact claim about a chain's tip: the index and hash of its
// last link, which is what two copies of a chain are compared by. Index is
// -1 for an empty chain.
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

// AppendContent appends the bytes a link's hash covers: p encoded as
// encoding/json.Marshal encodes it with Hash and MAC empty, whatever p
// holds in them. A time MarshalJSON refuses panics, as marshal would fail:
// the enforcer stamps its own clock's times, and a link nobody can verify
// must not be written.
func AppendContent[T any, P Link[T]](b []byte, p P) []byte {
	h := p.header()
	b = strconv.AppendInt(append(b, `{"index":`...), int64(h.Index), 10)
	b = appendTime(append(b, `,"time":`...), h.Time)
	b = p.AppendFields(append(b, ','))
	b = AppendString(append(b, `"prevHash":`...), p.seal().PrevHash)
	return append(b, `,"hash":"","mac":""}`...)
}

// appendTime appends t quoted as time.Time.MarshalJSON writes it, and
// panics where MarshalJSON fails: a year outside 0–9999, or a zone hour
// outside 0–23.
func appendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	n := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n+len("9999")] != '-' {
		panic("chain: marshal link: year outside of range [0,9999]")
	}
	if z := b[len(b)-len("Z07:00"):]; b[len(b)-1] != 'Z' && ('0' <= z[0] && z[0] <= '9' || 10*(z[1]-'0')+z[2]-'0' >= 24) {
		panic("chain: marshal link: timezone hour outside of range [0,23]")
	}
	return append(b, '"')
}

// htmlSafe marks the ASCII bytes a JSON string holds as themselves when
// HTML escaping is on.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return safe
}()

// AppendString appends s as a JSON string exactly as encoding/json.Marshal
// writes one, HTML escaping on: the short escapes for \ " \b \f \n \r \t,
// \u00xx for the other control bytes and for < > &, \ufffd for each byte
// of invalid UTF-8, and \u2028 and \u2029 for the two line separators.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
				b = append(b, '\\', `"\bfnrt`[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// digest encodes p's content into *buf, which it keeps for the next call,
// and returns the content hash and its HMAC in lower-case hex, both
// slices of *buf that the next call overwrites.
func digest[T any, P Link[T]](mac hash.Hash, buf *[]byte, p P) (sum, tag []byte) {
	b := AppendContent((*buf)[:0], p)
	n := len(b)
	h := sha256.Sum256(b)
	b = append(b, h[:]...) // the HMAC reads the hash from b: handed h, it would move h to the heap
	mac.Reset()
	mac.Write(b[n:])
	b = mac.Sum(b)
	b = hex.AppendEncode(b, b[n:n+2*sha256.Size])
	*buf = b
	n += 2 * sha256.Size
	return b[n : n+2*sha256.Size], b[n+2*sha256.Size:]
}

// admit is the one rule by which an already-sealed link is accepted as
// link i of a chain whose previous link hashes to prev. Verify and Import
// both go through it. The MAC is compared as the string Append would have
// written, not as the bytes it decodes to: hex decoding accepts either
// case, and no byte of an exported MAC may change without failing here.
func admit[T any, P Link[T]](mac hash.Hash, buf *[]byte, p P, i int, prev string) error {
	if got := p.header().Index; got != i {
		return fmt.Errorf("chain: link %d has index %d (reordered or truncated)", i, got)
	}
	s := p.seal()
	if s.PrevHash != prev {
		return fmt.Errorf("chain: link %d does not extend its predecessor (chain break)", i)
	}
	sum, tag := digest(mac, buf, p)
	if string(sum) != s.Hash {
		return fmt.Errorf("chain: link %d content hash mismatch (tampered)", i)
	}
	if !hmac.Equal(tag, []byte(s.MAC)) {
		return fmt.Errorf("chain: link %d MAC mismatch (forged)", i)
	}
	return nil
}

// verify admits links as links first, first+1, … of a chain whose
// previous link hashes to prev, and returns the last one's hash.
func verify[T any, P Link[T]](mac hash.Hash, buf *[]byte, links []T, first int, prev string) (string, error) {
	for i := range links {
		p := P(&links[i])
		if err := admit(mac, buf, p, first+i, prev); err != nil {
			return "", err
		}
		prev = p.seal().Hash
	}
	return prev, nil
}

// Verify checks a detached link slice: index continuity, prev-hash links,
// every content hash and every HMAC. It returns the first inconsistency.
// Every prefix of a valid chain is a valid chain — the shape a crash
// leaves — while a dropped, reordered or edited link is not.
func Verify[T any, P Link[T]](links []T, key []byte) error {
	var buf []byte
	_, err := verify[T, P](hmac.New(sha256.New, key), &buf, links, 0, "")
	return err
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

// pageSize is how many links one page of a Log's storage holds. A page
// after the first is allocated full-size and never reallocated, so an
// append copies no link before it, however long the chain. The first page
// starts at firstPage slots and doubles up to pageSize, so a short chain
// (a tenant's first links) holds a few slots, not a thousand; a doubling
// copies only the first page's links, into a new array.
const (
	pageSize  = 1024
	firstPage = 8
)

// Log is an append-only chain of links of type T. It is safe for
// concurrent use.
type Log[T any, P Link[T]] struct {
	mu       sync.Mutex
	mac      hash.Hash // HMAC-SHA256 under the log's key, Reset per use under mu
	buf      []byte    // the content encoding, reused under mu
	pages    [][]T     // the chain, pageSize links to a page; only the last is not full
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
	if _, err := verify[T, P](l.mac, &l.buf, links, 0, ""); err != nil {
		return nil, err
	}
	for i := range links {
		l.push(links[i])
	}
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

// push stores v after the last link, opening a page when the last is full
// and growing the first while it is short of pageSize.
func (l *Log[T, P]) push(v T) P {
	switch n := len(l.pages); {
	case n == 0:
		l.pages = append(l.pages, make([]T, 0, firstPage))
	case len(l.pages[n-1]) == pageSize:
		l.pages = append(l.pages, make([]T, 0, pageSize))
	case len(l.pages[n-1]) == cap(l.pages[n-1]): // the first page, short of pageSize
		l.pages[0] = append(make([]T, 0, min(2*cap(l.pages[0]), pageSize)), l.pages[0]...)
	}
	pg := &l.pages[len(l.pages)-1]
	*pg = append(*pg, v)
	return P(&(*pg)[len(*pg)-1])
}

func (l *Log[T, P]) len() int {
	if len(l.pages) == 0 {
		return 0
	}
	return (len(l.pages)-1)*pageSize + len(l.pages[len(l.pages)-1])
}

// Append adds v to the chain, filling in index, time, hashes and MAC, and
// returns the completed link.
func (l *Log[T, P]) Append(v T) T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, prev := l.len(), ""
	if n > 0 {
		prev = P(&l.pages[(n-1)/pageSize][(n-1)%pageSize]).seal().Hash
	}
	p := l.push(v)
	*p.header() = Header{Index: n, Time: l.now()}
	s := p.seal()
	*s = Seal{PrevHash: prev}
	sum, tag := digest(l.mac, &l.buf, p)
	s.Hash, s.MAC = string(sum), string(tag)
	if l.onAppend != nil {
		l.onAppend(p)
	}
	return *p
}

// Links returns a copy of the chain.
func (l *Log[T, P]) Links() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flat()
}

func (l *Log[T, P]) flat() []T {
	out := make([]T, 0, l.len())
	for _, pg := range l.pages {
		out = append(out, pg...)
	}
	return out
}

// Len returns the number of links.
func (l *Log[T, P]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.len()
}

// View calls fn with the chain itself, under the log's lock, for scans
// that should not pay for a copy: its pages in order, each holding
// pageSize links but the last. fn must neither modify nor keep them, nor
// call the log.
func (l *Log[T, P]) View(fn func(pages [][]T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.pages)
}

// Verify checks the log's own chain the way the package-level Verify
// checks a detached one.
func (l *Log[T, P]) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := ""
	for k, pg := range l.pages {
		var err error
		if prev, err = verify[T, P](l.mac, &l.buf, pg, k*pageSize, prev); err != nil {
			return err
		}
	}
	return nil
}

// Export serialises the chain as JSON, for offline review and for the
// recovering enforcer; Import authenticates it before anything trusts it.
// An empty chain exports as null.
func (l *Log[T, P]) Export() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var links []T
	if len(l.pages) > 0 {
		links = l.flat()
	}
	return json.MarshalIndent(links, "", "  ")
}
