package chain

// The log on a payload of its own. The tamper suite and FuzzImport, which
// run every refusal on the two real payloads, are in internal/journal.

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

type note struct {
	Header
	Text string `json:"text"`
	Seal
}

func (n *note) AppendFields(b []byte) []byte {
	return append(AppendString(append(b, `"text":`...), n.Text), ',')
}

func fixedClock() time.Time { return time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC) }

// TestContentRule writes the rule out: the hash is the SHA-256 of exactly
// these bytes, the MAC the HMAC-SHA256 of that hash, both in lower-case hex.
func TestContentRule(t *testing.T) {
	key := []byte("k")
	l := New[note](key)
	l.SetClock(fixedClock)
	first := l.Append(note{Text: "a|b"})
	second := l.Append(note{Text: "c", Seal: Seal{Hash: "ignored", MAC: "ignored"}})

	for _, tc := range []struct {
		link    note
		content string
	}{
		{first, `{"index":0,"time":"2026-07-06T12:00:00Z","text":"a|b","prevHash":"","hash":"","mac":""}`},
		{second, `{"index":1,"time":"2026-07-06T12:00:00Z","text":"c","prevHash":"` + first.Hash + `","hash":"","mac":""}`},
	} {
		sum := sha256.Sum256([]byte(tc.content))
		if want := hex.EncodeToString(sum[:]); tc.link.Hash != want {
			t.Errorf("link %d hash = %s, want sha256(%s) = %s", tc.link.Index, tc.link.Hash, tc.content, want)
		}
		mac := hmac.New(sha256.New, key)
		mac.Write(sum[:])
		if want := hex.EncodeToString(mac.Sum(nil)); tc.link.MAC != want {
			t.Errorf("link %d MAC = %s, want %s", tc.link.Index, tc.link.MAC, want)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestOnAppend: the hook sees every link that joins the chain by Append,
// and none that arrived by import.
func TestOnAppend(t *testing.T) {
	key := []byte("k")
	src := New[note](key)
	src.Append(note{Text: "one"})
	src.Append(note{Text: "two"})

	imported, err := FromLinks(key, src.Links())
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	imported.OnAppend(func(n *note) { seen = append(seen, n.Index) })
	imported.Append(note{Text: "three"})
	imported.Append(note{Text: "four"})
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Fatalf("hook saw links %v, want [2 3]", seen)
	}
	if h := HeadOf(imported.Links()); h.Index != 3 || h.Hash == "" {
		t.Fatalf("head = %+v", h)
	}
	if h := HeadOf[note](nil); h.Index != -1 {
		t.Fatalf("empty head = %+v", h)
	}
}

// TestFromLinksCopies: a log seeded from a slice shares no storage with
// it, so two logs seeded from one chain cannot append into each other.
func TestFromLinksCopies(t *testing.T) {
	key := []byte("k")
	src := New[note](key)
	src.Append(note{Text: "one"})
	seed := make([]note, 1, 4)
	copy(seed, src.Links())
	a, err := FromLinks(key, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromLinks(key, seed)
	if err != nil {
		t.Fatal(err)
	}
	a.Append(note{Text: "a's"})
	b.Append(note{Text: "b's"})
	if err := a.Verify(); err != nil {
		t.Fatalf("first log: %v", err)
	}
	if got := a.Links()[1].Text; got != "a's" {
		t.Fatalf("first log's second link = %q", got)
	}
}
