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
// examples/ programs, the root tests and the docs use, so a downstream
// user needs a single import:
//
//	sys, err := heimdall.NewSystem(heimdall.Options{Network: prod})
//	tk := sys.Tickets.Create(heimdall.Ticket{Summary: "h1 cannot reach h2",
//	        Kind: heimdall.TaskConnectivity, SrcHost: "h1", DstHost: "h2"})
//	eng, err := sys.StartWork(tk.ID, "alice")
//	sess, err := eng.Console("r1")
//	out, err := sess.Exec("show ip route")
//	decision, err := eng.Commit()
//
// See the examples/ directory for complete runnable programs and DESIGN.md
// for the system inventory.
package heimdall

import (
	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/core"
	"heimdall/internal/dataplane"
	"heimdall/internal/monitor"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/scenarios"
	"heimdall/internal/spec"
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

// Configuration text.
var (
	// ParseConfig reads vendor-style configuration text into a device model.
	ParseConfig = config.Parse
	// PrintConfig renders a device model as canonical configuration text.
	PrintConfig = config.Print
	// DiffDevices computes the semantic changes between two device states.
	DiffDevices = config.DiffDevice
)

// Dataplane.
type (
	// Snapshot is the computed forwarding state of one network
	// configuration.
	Snapshot = dataplane.Snapshot
	// Flow describes traffic for traces and policy checks.
	Flow = dataplane.Flow
)

// ComputeSnapshot computes the forwarding behaviour of a network.
func ComputeSnapshot(n *Network) *Snapshot { return dataplane.Compute(n) }

// Policies and verification.
type (
	// Policy is one verifiable network policy.
	Policy = verify.Policy
)

// Policy kinds.
const (
	Reachability = verify.Reachability
)

var (
	// CheckPolicies evaluates policies against a snapshot.
	CheckPolicies = verify.Check
	// MinePolicies derives the policy set implied by a baseline snapshot
	// (the config2spec role in the paper's pipeline).
	MinePolicies = spec.Mine
)

// MiningOptions configures MinePolicies.
type MiningOptions = spec.Options

// Privilegemsp.
type (
	// PrivilegeRule is one allow/deny predicate.
	PrivilegeRule = privilege.Rule
	// TemplateInput describes a ticket to GeneratePrivileges.
	TemplateInput = privilege.TemplateInput
)

// Task kinds for privilege templates.
const (
	TaskACL        = privilege.TaskACL
	TaskVLAN       = privilege.TaskVLAN
	TaskOSPF       = privilege.TaskOSPF
	TaskISP        = privilege.TaskISP
	TaskMonitoring = privilege.TaskMonitoring

	Allow = privilege.AllowEffect
)

var (
	// ParsePrivilegeSpec parses the text DSL ("allow(action, resource)").
	ParsePrivilegeSpec = privilege.ParseSpec
	// GeneratePrivileges builds a task-driven Privilegemsp.
	GeneratePrivileges = privilege.Generate
)

// Twin network.
type (
	// TwinConfig assembles a twin network.
	TwinConfig = twin.Config
	// ErrDenied is returned when the reference monitor blocks a command.
	ErrDenied = twin.ErrDenied
)

// Slice strategies (the paper's Figure 5 design space).
const (
	SliceTaskDriven = twin.SliceTaskDriven
)

var (
	// NewTwin builds a twin network.
	NewTwin = twin.New
	// ComputeSlice returns the devices a strategy exposes for a ticket.
	ComputeSlice = twin.ComputeSlice
)

// Terminal adds IOS-style modal editing (configure terminal, sub-modes) on
// top of any mediated command Runner.
type Terminal = console.Terminal

// NewTerminal wraps a Runner (e.g. a TwinSession's Exec) in a modal
// terminal.
func NewTerminal(run console.Runner) *Terminal { return console.NewTerminal(run) }

// Tickets.
type (
	// Ticket describes one reported issue.
	Ticket = ticket.Ticket
)

// Ticket statuses.
const (
	TicketResolved = ticket.Resolved
)

// Audit.
type (
	// AuditTrail is the tamper-evident audit log.
	AuditTrail = audit.Trail
)

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

// ReplayTicket re-executes a ticket's allowed commands — extracted from a
// verified audit trail — on a twin of the incident-time baseline.
var ReplayTicket = core.ReplayTicket

var (
	// EvaluateTraffic routes a demand matrix over a snapshot.
	EvaluateTraffic = monitor.Evaluate
	// UniformTrafficMatrix generates a deterministic random demand matrix.
	UniformTrafficMatrix = monitor.UniformMatrix
)

// Evaluation scenarios (the paper's Table 1 networks).
type Scenario = scenarios.Scenario

var (
	// EnterpriseScenario builds the enterprise evaluation network.
	EnterpriseScenario = scenarios.Enterprise
)
