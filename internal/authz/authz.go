// Package authz implements M-of-N multi-party authorization for high-risk
// production changes, following the Kinkelin line of work on multi-party
// authorization for network configuration: the paper's threat model is a
// compromised MSP, so no single party — not even the enforcer operator —
// may authorize a change class that could re-open the attack surface.
//
// A change set is classified by risk: anything touching ACLs, routing
// (static routes, gateways, OSPF, BGP) or routed-interface state is
// high-risk and requires M valid signer approvals, drawn from both the
// customer and the MSP, before the enforcer's push phase may start. Each
// approval is an HMAC over a canonical digest of (ticket, scheduled change
// set) under that signer's key, and the approvals are recorded in the
// commit journal's intent record — so the journal itself proves who
// authorized what, and every enforcer replica re-verifies the approvals
// independently before voting to commit (a coordinator that skips the
// check cannot reach quorum).
package authz

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"heimdall/internal/config"
	"heimdall/internal/journal"
	"heimdall/internal/netmodel"
)

// Risk classifies a change set's blast radius.
type Risk int

const (
	// LowRisk changes cannot re-open reachability into guarded segments:
	// VLAN definitions and L2-only interface edits.
	LowRisk Risk = iota
	// HighRisk changes touch ACLs, routing state, or routed (addressed)
	// interfaces — the classes a compromised technician would use.
	HighRisk
)

// String returns "low" or "high".
func (r Risk) String() string {
	if r == HighRisk {
		return "high"
	}
	return "low"
}

// Classify returns the risk class of a change set: the maximum over its
// changes. ACL edits, static routes, gateway changes, OSPF/BGP process
// edits and routed-interface changes are high-risk; VLAN definitions and
// L2-only interface edits are low-risk. (Privilege-spec changes are not
// config changes — they go through the escalation workflow, which has its
// own approval step.)
func Classify(changes []config.Change) Risk {
	for _, c := range changes {
		switch c.Op {
		case config.OpAddACLEntry, config.OpRemoveACLEntry, config.OpRemoveACL,
			config.OpAddStaticRoute, config.OpRemoveStaticRoute, config.OpSetGateway,
			config.OpSetOSPF, config.OpRemoveOSPF, config.OpSetBGP, config.OpRemoveBGP:
			return HighRisk
		case config.OpAddInterface, config.OpSetInterface:
			if !netmodel.InterfaceL2Only(c.Interface) {
				return HighRisk
			}
		case config.OpSetVLAN, config.OpRemoveVLAN:
			// L2 fabric definitions: low risk.
		default:
			// Unknown ops are conservatively high-risk.
			return HighRisk
		}
	}
	return LowRisk
}

// Signer roles. A valid M-of-N quorum must include both sides of the
// engagement when the policy demands it — the customer alone cannot push
// without the MSP's review, and a compromised MSP cannot push without the
// customer.
const (
	RoleCustomer = "customer"
	RoleMSP      = "msp"
)

// Digest is the canonical byte string an approval signs: a versioned
// domain separator, the ticket, and every scheduled change in order.
func Digest(ticket string, changes []config.Change) []byte {
	h := sha256.New()
	h.Write([]byte("heimdall-authz-v1\x00"))
	h.Write([]byte(ticket))
	h.Write([]byte{0})
	for _, c := range changes {
		h.Write([]byte(c.String()))
		h.Write([]byte{0})
	}
	return h.Sum(nil)
}

// Signer holds one approving party's HMAC key.
type Signer struct {
	Name string
	Role string
	key  []byte
}

// NewSigner builds a signer from a name, role and key copy.
func NewSigner(name, role string, key []byte) *Signer {
	return &Signer{Name: name, Role: role, key: append([]byte(nil), key...)}
}

// Approve signs the (ticket, change set) digest.
func (s *Signer) Approve(ticket string, changes []config.Change) journal.Approval {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(Digest(ticket, changes))
	return journal.Approval{Signer: s.Name, Role: s.Role, MAC: hex.EncodeToString(mac.Sum(nil))}
}

// Policy is an M-of-N authorization requirement over a registered signer
// set. Configure it once at deployment time; Verify is safe for concurrent
// use afterwards.
type Policy struct {
	// M is how many distinct valid signatures a high-risk change needs.
	M int
	// RequireBothParties additionally demands at least one valid customer
	// and one valid MSP signature among the M.
	RequireBothParties bool
	signers            map[string]*Signer
}

// NewPolicy builds an M-of-N policy with no registered signers.
func NewPolicy(m int, requireBoth bool) *Policy {
	return &Policy{M: m, RequireBothParties: requireBoth, signers: make(map[string]*Signer)}
}

// Register adds a signer key and returns the signer (for tests and the
// approval workflow).
func (p *Policy) Register(name, role string, key []byte) *Signer {
	s := NewSigner(name, role, key)
	p.signers[name] = s
	return s
}

// Verify checks the approvals against the policy for the given ticket and
// scheduled change set: at least M distinct registered signers with valid
// MACs over the digest, including both parties when required. Unknown
// signers, duplicate signers and bad MACs are ignored (they don't count),
// not fatal — the question is whether enough valid approvals exist.
func (p *Policy) Verify(ticket string, changes []config.Change, approvals []journal.Approval) error {
	digest := Digest(ticket, changes)
	valid := 0
	roles := map[string]bool{}
	seen := map[string]bool{}
	for _, a := range approvals {
		s := p.signers[a.Signer]
		if s == nil || seen[a.Signer] {
			continue
		}
		want := hmac.New(sha256.New, s.key)
		want.Write(digest)
		got, err := hex.DecodeString(a.MAC)
		if err != nil || !hmac.Equal(want.Sum(nil), got) {
			continue
		}
		seen[a.Signer] = true
		valid++
		roles[s.Role] = true
	}
	if valid < p.M {
		return fmt.Errorf("authz: %d valid approvals, need %d", valid, p.M)
	}
	if p.RequireBothParties && (!roles[RoleCustomer] || !roles[RoleMSP]) {
		return fmt.Errorf("authz: approvals must include both customer and msp signatures")
	}
	return nil
}
