// Package heimdall is the public API of this repository: a complete
// implementation of Heimdall, the least-privilege architecture for managed
// network services from "Watching the watchmen: Least privilege for managed
// network services" (HotNets'21).
//
// Heimdall replaces the current MSP model — where an authenticated
// technician holds root on every device of the customer network — with a
// three-step workflow:
//
//  1. a fine-grained privilege specification (Privilegemsp) is generated
//     for each ticket from a task template or written in a small DSL;
//  2. the technician works inside an isolated twin network that mimics the
//     production network, with every command mediated by a reference
//     monitor against the Privilegemsp;
//  3. a policy enforcer — hosted in a (simulated) trusted execution
//     environment — verifies the proposed changes against the customer's
//     network policies, schedules them safely into production, and keeps a
//     tamper-evident audit trail.
//
// The package re-exports the part of the internal packages that the
// examples use, so a downstream user needs a single import:
//
//	sys, err := heimdall.NewSystem(heimdall.Options{Network: prod})
//	tk := sys.Tickets.Create(heimdall.Ticket{Summary: "h1 cannot reach h2",
//	        Kind: heimdall.TaskACL, SrcHost: "h1", DstHost: "h2"})
//	eng, err := sys.StartWork(tk.ID, "alice")
//	sess, err := eng.Console("r1")
//	out, err := sess.Exec("show ip route")
//	decision, err := eng.Commit()
//
// The Example functions of this package are complete runnable programs
// (go test -run Example .), and DESIGN.md is the system inventory.
package heimdall

import (
	"heimdall/internal/audit"
	"heimdall/internal/core"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// Network model.
type (
	// Network is the semantic model of a managed network.
	Network = netmodel.Network
	// ACLEntry is one rule of an access list.
	ACLEntry = netmodel.ACLEntry
	// BGPProcess is a device's eBGP configuration.
	BGPProcess = netmodel.BGPProcess
)

// ACL entry actions.
const (
	ACLPermit = netmodel.Permit
	ACLDeny   = netmodel.Deny
)

// Device kinds and protocols.
const (
	Router = netmodel.Router
	Host   = netmodel.Host

	TCP  = netmodel.TCP
	ICMP = netmodel.ICMP
)

// NewNetwork returns an empty network model.
func NewNetwork(name string) *Network { return netmodel.NewNetwork(name) }

// Flow describes traffic for traces and policy checks.
type Flow = dataplane.Flow

// ComputeSnapshot computes the forwarding behaviour of a network.
func ComputeSnapshot(n *Network) *dataplane.Snapshot { return dataplane.Compute(n) }

// Policy is one verifiable network policy.
type Policy = verify.Policy

// Reachability is the policy kind that requires a flow to be delivered.
const Reachability = verify.Reachability

// PrivilegeRule is one allow/deny predicate of a Privilegemsp.
type PrivilegeRule = privilege.Rule

// Task kinds for privilege templates.
const (
	TaskACL        = privilege.TaskACL
	TaskVLAN       = privilege.TaskVLAN
	TaskOSPF       = privilege.TaskOSPF
	TaskISP        = privilege.TaskISP
	TaskMonitoring = privilege.TaskMonitoring

	Allow = privilege.AllowEffect
)

// ErrDenied is returned when the reference monitor blocks a command.
type ErrDenied = twin.ErrDenied

// Ticket describes one reported issue.
type Ticket = ticket.Ticket

// AuditTrail is the tamper-evident audit log.
type AuditTrail = audit.Trail

// ImportAuditTrail parses an exported audit trail and verifies it against
// the trail key, rejecting any tampering. An export written before the
// trail moved onto internal/chain hashed different content and no longer
// imports.
var ImportAuditTrail = audit.Import

// SummarizeAuditTrail groups trail entries into per-ticket review reports.
var SummarizeAuditTrail = audit.Summarize

// Workflow.
type (
	// System is one Heimdall deployment for a customer network.
	System = core.System
	// Options configures a deployment.
	Options = core.Options
)

// NewSystem builds a Heimdall deployment around a production network.
func NewSystem(opts Options) (*System, error) { return core.NewSystem(opts) }

// Evaluation scenarios (the paper's Table 1 networks).
type Scenario = scenarios.Scenario

// EnterpriseScenario builds the enterprise evaluation network.
var EnterpriseScenario = scenarios.Enterprise
