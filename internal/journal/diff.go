package journal

// Journal comparison: two honest copies of one enforcer's journal are
// byte-identical or one is a prefix of the other; Diff classifies every way
// they can disagree, for the operator-facing `heimdallctl journal diff`.

import "fmt"

// Relation classifies how two record chains relate.
type Relation string

const (
	// RelEqual: both chains are identical.
	RelEqual Relation = "equal"
	// RelPrefix: chain A is a proper prefix of chain B — A is truncated
	// (or merely behind, if A's holder is known to be crashed/lagging).
	RelPrefix Relation = "prefix"
	// RelExtends: chain A properly extends chain B.
	RelExtends Relation = "extends"
	// RelDiverged: the chains disagree on a record both hold.
	RelDiverged Relation = "diverged"
)

// DiffResult reports the first disagreement between two chains.
type DiffResult struct {
	Relation Relation
	// Index is the first differing record index (RelDiverged), or the
	// length of the shorter chain otherwise.
	Index      int
	ALen, BLen int
	// AHash/BHash are the records' content hashes at Index (RelDiverged).
	AHash, BHash string
}

// Equal reports whether the chains are identical.
func (d DiffResult) Equal() bool { return d.Relation == RelEqual }

// String renders the verdict for operators.
func (d DiffResult) String() string {
	switch d.Relation {
	case RelEqual:
		return fmt.Sprintf("chains identical (%d records)", d.ALen)
	case RelPrefix:
		return fmt.Sprintf("A (%d records) is a proper prefix of B (%d records): truncated or behind at record %d",
			d.ALen, d.BLen, d.Index)
	case RelExtends:
		return fmt.Sprintf("A (%d records) extends B (%d records): B truncated or behind at record %d",
			d.ALen, d.BLen, d.Index)
	default:
		return fmt.Sprintf("chains diverge at record %d: A hash %.12s…, B hash %.12s…",
			d.Index, d.AHash, d.BHash)
	}
}

// Diff compares two chains record by record (content hash and chain
// fields both — a re-MAC'd record with identical payload still differs,
// because the hex MAC is part of the comparison).
func Diff(a, b []Record) DiffResult {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Hash != b[i].Hash || a[i].MAC != b[i].MAC || a[i].PrevHash != b[i].PrevHash {
			return DiffResult{Relation: RelDiverged, Index: i, ALen: len(a), BLen: len(b),
				AHash: a[i].Hash, BHash: b[i].Hash}
		}
	}
	switch {
	case len(a) == len(b):
		return DiffResult{Relation: RelEqual, Index: n, ALen: len(a), BLen: len(b)}
	case len(a) < len(b):
		return DiffResult{Relation: RelPrefix, Index: n, ALen: len(a), BLen: len(b)}
	default:
		return DiffResult{Relation: RelExtends, Index: n, ALen: len(a), BLen: len(b)}
	}
}
