// Package verify implements Heimdall's network policy verification: the
// policy types an enterprise states about its network (reachability,
// isolation, waypoint traversal), a checker that evaluates them against a
// computed dataplane snapshot, and counterexample traces for violations.
//
// The policy enforcer runs this checker over the twin network's output
// before any change is imported into the production network (paper §4.3).
package verify

import (
	"encoding/json"
	"fmt"
	"time"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// Kind classifies a network policy.
type Kind int

const (
	// Reachability requires the flow to be delivered.
	Reachability Kind = iota
	// Isolation requires the flow NOT to be delivered.
	Isolation
	// Waypoint requires the flow to be delivered AND to traverse a named
	// device (e.g. a firewall).
	Waypoint
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case Reachability:
		return "reachability"
	case Isolation:
		return "isolation"
	case Waypoint:
		return "waypoint"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Policy is one verifiable statement about the network's behaviour.
// Src and Dst name hosts; the checker resolves their addresses from the
// snapshot under test.
type Policy struct {
	ID      string
	Kind    Kind
	Src     string
	Dst     string
	Proto   netmodel.Protocol
	DstPort uint16
	// Via is the waypoint device for Kind == Waypoint.
	Via string
}

// String renders the policy in config2spec-like syntax.
func (p Policy) String() string {
	svc := p.Proto.String()
	if p.DstPort != 0 {
		svc = fmt.Sprintf("%s/%d", p.Proto, p.DstPort)
	}
	switch p.Kind {
	case Reachability:
		return fmt.Sprintf("%s: reachable(%s -> %s, %s)", p.ID, p.Src, p.Dst, svc)
	case Isolation:
		return fmt.Sprintf("%s: isolated(%s -> %s, %s)", p.ID, p.Src, p.Dst, svc)
	case Waypoint:
		return fmt.Sprintf("%s: waypoint(%s -> %s, %s, via %s)", p.ID, p.Src, p.Dst, svc, p.Via)
	}
	return p.ID
}

// policyJSON is the Batfish-inspired JSON frontend format.
type policyJSON struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Proto   string `json:"proto,omitempty"`
	DstPort uint16 `json:"dstPort,omitempty"`
	Via     string `json:"via,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (p Policy) MarshalJSON() ([]byte, error) {
	return json.Marshal(policyJSON{
		ID: p.ID, Kind: p.Kind.String(), Src: p.Src, Dst: p.Dst,
		Proto: p.Proto.String(), DstPort: p.DstPort, Via: p.Via,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var j policyJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	var kind Kind
	switch j.Kind {
	case "reachability":
		kind = Reachability
	case "isolation":
		kind = Isolation
	case "waypoint":
		kind = Waypoint
	default:
		return fmt.Errorf("verify: unknown policy kind %q", j.Kind)
	}
	proto := netmodel.AnyProto
	if j.Proto != "" {
		var err error
		proto, err = netmodel.ParseProtocol(j.Proto)
		if err != nil {
			return err
		}
	}
	*p = Policy{ID: j.ID, Kind: kind, Src: j.Src, Dst: j.Dst, Proto: proto, DstPort: j.DstPort, Via: j.Via}
	return nil
}

// MarshalPolicies encodes policies as indented JSON.
func MarshalPolicies(policies []Policy) ([]byte, error) {
	return json.MarshalIndent(policies, "", "  ")
}

// Violation is one failed policy with its counterexample trace.
type Violation struct {
	Policy Policy
	Trace  *dataplane.Trace
	Reason string
}

// String renders the violation with its evidence.
func (v Violation) String() string {
	s := fmt.Sprintf("VIOLATION %s: %s", v.Policy, v.Reason)
	if v.Trace != nil {
		s += " | " + v.Trace.String()
	}
	return s
}

// Result summarises one verification run.
type Result struct {
	Checked    int
	Violations []Violation
	Elapsed    time.Duration
}

// Verdict is what one policy came to on one snapshot: the trace it was
// decided on (nil when Reach failed) and the violation, nil when it holds.
type Verdict struct {
	Trace     *dataplane.Trace
	Violation *Violation
}

// Verdicts holds the verdicts of one policy set on one snapshot, one slot
// per policy, index-aligned; a nil slot is a policy nobody decided there. A
// vector is complete before anyone but its builder reads it (CheckCarried's
// next) and is never written after, so readers share it as it is.
type Verdicts []*Verdict

// Violations returns the violations of v's filled slots, in policy order.
func (v Verdicts) Violations() []Violation {
	var out []Violation
	for _, c := range v {
		if c != nil && c.Violation != nil {
			out = append(out, *c.Violation)
		}
	}
	return out
}

// Check evaluates every policy against the snapshot.
func Check(s *dataplane.Snapshot, policies []Policy) *Result {
	return CheckCarried(s, policies, nil, nil, nil)
}

// Instruments are CheckCarried's metrics, looked up once on a meter: the
// runs, the policies checked, carried and resumed, the counterexamples
// found and the run time.
type Instruments struct {
	runs, checked, carried, resumed, counterexamples telemetry.Counter
	seconds                                          telemetry.Histogram
}

// NewInstruments looks CheckCarried's metrics up on m.
func NewInstruments(m telemetry.Meter) *Instruments {
	return &Instruments{
		runs:            m.Counter("heimdall_verify_runs_total"),
		checked:         m.Counter("heimdall_verify_policies_checked_total"),
		carried:         m.Counter("heimdall_verify_policies_carried_total"),
		resumed:         m.Counter("heimdall_verify_policies_resumed_total"),
		counterexamples: m.Counter("heimdall_verify_counterexamples_total"),
		seconds:         m.Histogram("heimdall_verify_run_seconds", telemetry.LatencyBuckets),
	}
}

// CheckCarried is Check, metered on m (nil: not), for a snapshot derived
// from one whose verdicts are known. parent, when not nil, is that
// snapshot's vector over the same policies, only read: a verdict decided
// there on a trace s carries (dataplane.Snapshot.Carries) is s's verdict too
// and is taken by index. Every other policy is traced and decided on s: from
// the parent verdict's trace when there is one (dataplane.Snapshot.ReachFrom
// resumes it at its first stale hop), else from the source. next, when not
// nil, receives every policy's verdict on s; the verdicts decided here share
// one allocation. Checked counts every policy: each holds a verdict valid
// for s.
func CheckCarried(s *dataplane.Snapshot, policies []Policy, parent, next Verdicts, m *Instruments) *Result {
	start := time.Now()
	res := &Result{Checked: len(policies)}
	// A nil trace carries exactly when s is in a carry generation, which is
	// when a parent verdict's trace s does not carry is resumed.
	resumable := s.Carries(nil)
	carried, resumed := 0, 0
	var batch []Verdict
	for i, p := range policies {
		var v *Verdict
		if parent != nil {
			v = parent[i]
		}
		var violation *Violation
		if v != nil && s.Carries(v.Trace) {
			carried++
			violation = v.Violation
		} else {
			var prev *dataplane.Trace
			if v != nil && resumable {
				prev = v.Trace
				resumed++
			}
			tr, err := s.ReachFrom(prev, p.Src, p.Dst, p.Proto, p.DstPort)
			violation = decide(p, tr, err)
			if next != nil {
				if len(batch) == 0 {
					batch = make([]Verdict, len(policies)-i)
				}
				v, batch = &batch[0], batch[1:]
				*v = Verdict{Trace: tr, Violation: violation}
			}
		}
		if next != nil {
			next[i] = v
		}
		if violation != nil {
			res.Violations = append(res.Violations, *violation)
		}
	}
	res.Elapsed = time.Since(start)
	if m != nil {
		m.runs.Inc()
		m.checked.Add(float64(res.Checked))
		m.carried.Add(float64(carried))
		m.resumed.Add(float64(resumed))
		m.counterexamples.Add(float64(len(res.Violations)))
		m.seconds.ObserveDuration(res.Elapsed)
	}
	return res
}

// CheckPolicy evaluates one policy, returning nil when it holds and the
// violation (with counterexample) when it does not.
func CheckPolicy(s *dataplane.Snapshot, p Policy) *Violation {
	tr, err := s.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
	return decide(p, tr, err)
}

// decide is the verdict of one policy given its flow's Reach result: a pure
// function of the three, which is what lets a verdict travel with its trace.
func decide(p Policy, tr *dataplane.Trace, err error) *Violation {
	if err != nil {
		return &Violation{Policy: p, Reason: err.Error()}
	}
	switch p.Kind {
	case Reachability:
		if !tr.Delivered() {
			return &Violation{Policy: p, Trace: tr, Reason: "flow not delivered"}
		}
	case Isolation:
		if tr.Delivered() {
			return &Violation{Policy: p, Trace: tr, Reason: "flow delivered but must be isolated"}
		}
	case Waypoint:
		if !tr.Delivered() {
			return &Violation{Policy: p, Trace: tr, Reason: "flow not delivered"}
		}
		if !tr.Traverses(p.Via) {
			return &Violation{Policy: p, Trace: tr, Reason: fmt.Sprintf("flow bypasses waypoint %s", p.Via)}
		}
	default:
		return &Violation{Policy: p, Reason: "unknown policy kind"}
	}
	return nil
}

// Scope returns the policies a change to the named devices of n must
// re-examine: AffectedBy's trace-based subset, or every policy when one of
// the devices is a switch, because a VLAN fabric carries flows whose traces
// never list the switch as an L3 hop (an access-port move or trunk shutdown
// can break a policy AffectedBy would have dropped). The attack-surface
// sweep narrows each trial's verification to it.
func Scope(n *netmodel.Network, s *dataplane.Snapshot, policies []Policy, devices map[string]bool) []Policy {
	for dev := range devices {
		if d := n.Devices[dev]; d != nil && d.Kind == netmodel.Switch {
			return policies
		}
	}
	return AffectedBy(s, policies, devices)
}

// AffectedBy returns the subset of policies whose src->dst traffic traverses
// any of the named devices in the baseline snapshot, plus every isolation
// policy and every policy whose flow is not delivered there (a change
// anywhere could deliver it). Switches are invisible to it; see Scope.
func AffectedBy(s *dataplane.Snapshot, policies []Policy, devices map[string]bool) []Policy {
	var out []Policy
	for _, p := range policies {
		tr, err := s.Reach(p.Src, p.Dst, p.Proto, p.DstPort)
		if err != nil {
			out = append(out, p)
			continue
		}
		touched := false
		for _, h := range tr.Hops {
			if devices[h.Device] {
				touched = true
				break
			}
		}
		// Non-delivered flows could become delivered by changes anywhere;
		// isolation policies therefore always stay in scope.
		if touched || !tr.Delivered() || p.Kind == Isolation {
			out = append(out, p)
		}
	}
	return out
}
