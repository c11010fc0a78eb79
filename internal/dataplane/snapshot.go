package dataplane

import (
	"bytes"
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// Flow describes the traffic a trace or policy check exercises.
type Flow struct {
	Proto   netmodel.Protocol
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
}

// String renders the flow compactly, e.g. "tcp 10.1.0.5 -> 10.2.0.9:80".
func (f Flow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", f.Proto, f.Src)
	if f.SrcPort != 0 {
		fmt.Fprintf(&b, ":%d", f.SrcPort)
	}
	fmt.Fprintf(&b, " -> %s", f.Dst)
	if f.DstPort != 0 {
		fmt.Fprintf(&b, ":%d", f.DstPort)
	}
	return b.String()
}

// Options tunes snapshot computation.
type Options struct {
	// Meter receives the snapshot's flow-cache counters
	// (heimdall_dataplane_flowcache_{hits,misses,carried}_total) and the
	// route tables it builds (heimdall_dataplane_routes_built_total). Nil
	// means no instrumentation.
	Meter telemetry.Meter
}

// Snapshot is the computed forwarding state of one network configuration:
// L2 adjacency, the OSPF link-state database, BGP sessions and routes, and
// per-device RIBs and FIBs. Snapshots are immutable; recompute or Derive one
// after changing the network. Immutability is what makes the per-snapshot
// flow cache sound: a memoized trace can never go stale within one
// snapshot's lifetime, and a derived snapshot takes over only those that
// avoid every device it changed.
//
// A device's RIB and FIB are built when a trace or a route read first needs
// them, from the network's device, the LSDB and the BGP routes; like the
// ACLs a trace reads, they are read from the network then, so a snapshot is
// valid only while its network is unchanged.
type Snapshot struct {
	net      *netmodel.Network
	adj      adjacency
	sessions []bgpSession
	opts     Options
	// lsdb and bgpRoutes are what the route cells are built from: the
	// link-state database (one source's SPF runs when its cell is built)
	// and the per-device BGP routes. Derive patches the one and diffs the
	// other to decide which cells it can share.
	lsdb      *ospfLSDB
	bgpRoutes map[string]routeRows
	// names are the device names, sorted; cells[i] holds names[i]'s routes.
	// Derive shares the parent's cell of every device whose route inputs
	// provably did not move. built counts the cells filled
	// (heimdall_dataplane_routes_built_total).
	names []string
	cells []*routeCell
	built telemetry.Counter
	// flows memoizes Reach results (per snapshot, concurrency-safe).
	flows *flowCache
	// parentFlows is the cache of the snapshot this one was derived from,
	// set only when the derivation kept adj and addresses; stale and (with
	// only ChangeACL changes) aclStale are the positions of the devices whose
	// config differs from that parent's, suspects those whose cell is new
	// although their routing config is not; moved has bit p%64 set for each.
	// bound are the ACLs bound on the aclStale devices' interfaces, resolved
	// from n by Derive for the replay.
	parentFlows     *flowCache
	stale, aclStale []uint16
	bound           []binding
	suspects        []suspect
	moved           uint64
	// hops is the trace index of the adjacency generation, shared along
	// Derive's carry and built at the first trace (positions).
	hops *hopIndex
}

// routeCell is one device's routes: its RIB and the FIB over it, built at
// the first read (Snapshot.cell), and its OSPF routes, which a derived
// snapshot shares further than the cell: through a change of the device's
// own or BGP routes. RIB() materializes view, the RIB as FIBEntries, at its
// first call.
type routeCell struct {
	once     sync.Once
	rib      routeRows
	fib      lpm
	ospf     *ospfCell
	viewOnce sync.Once
	view     []FIBEntry
}

// ospfCell is one device's OSPF routes, computed at the first read.
type ospfCell struct {
	once   sync.Once
	routes routeRows
}

// fill builds the cell from the route inputs of a snapshot that holds it:
// n's device, the device's OSPF routes from l and its BGP routes. Every
// snapshot sharing a cell (or its OSPF routes) yields the same routes for
// its device, so it does not matter which one reads first. Callers run it
// under c.once.
func (c *routeCell) fill(n *netmodel.Network, l *ospfLSDB, bgp map[string]routeRows, dev string, built telemetry.Counter) {
	o := c.ospf
	o.once.Do(func() {
		if si, ok := l.index[dev]; ok {
			o.routes = l.routesFrom(si)
		}
	})
	c.rib = ribFor(n.Devices[dev], o.routes, bgp[dev])
	c.fib = newLPM(c.rib.rows)
	built.Inc()
}

// cell returns device i's routes, building them at first use.
func (s *Snapshot) cell(i int) *routeCell {
	c := s.cells[i]
	c.once.Do(func() { c.fill(s.net, s.lsdb, s.bgpRoutes, s.names[i], s.built) })
	return c
}

// Compute builds a snapshot of the network's forwarding behaviour with
// default options.
func Compute(n *netmodel.Network) *Snapshot { return ComputeWithOptions(n, Options{}) }

// ComputeWithOptions builds a snapshot with explicit options: adjacency,
// the LSDB, BGP sessions and routes now, every device's routes at first
// read.
func ComputeWithOptions(n *netmodel.Network, opts Options) *Snapshot {
	adj := computeAdjacency(n)
	sessions := bgpSessions(n, adj)
	m := opts.Meter
	if m == nil {
		m = telemetry.Nop()
	}
	s := &Snapshot{
		net:       n,
		adj:       adj,
		sessions:  sessions,
		opts:      opts,
		lsdb:      buildLSDB(n, adj),
		bgpRoutes: computeBGPOver(n, sessions),
		names:     n.DeviceNames(),
		built:     m.Counter("heimdall_dataplane_routes_built_total"),
		flows:     newFlowCache(opts.Meter),
		hops:      new(hopIndex),
	}
	cells, ospf := make([]routeCell, len(s.names)), make([]ospfCell, len(s.names))
	s.cells = make([]*routeCell, len(cells))
	for i := range cells {
		cells[i].ospf = &ospf[i]
		s.cells[i] = &cells[i]
	}
	return s
}

// Network returns the network the snapshot reads.
func (s *Snapshot) Network() *netmodel.Network { return s.net }

// RIB returns the device's routing table (best paths, sorted), or nil for
// an unknown device. Every call on one snapshot, and on the snapshots a
// Derive shares the device's route cell with, returns the same slice.
func (s *Snapshot) RIB(device string) []FIBEntry {
	i, ok := slices.BinarySearch(s.names, device)
	if !ok {
		return nil
	}
	c := s.cell(i)
	c.viewOnce.Do(func() { c.view = c.rib.entries() })
	return c.view
}

// Adjacent returns the L3 endpoints reachable at L2 from the endpoint.
func (s *Snapshot) Adjacent(ep netmodel.Endpoint) []netmodel.Endpoint { return s.adj[ep] }

// Disposition classifies the fate of a traced packet.
type Disposition int

const (
	// Delivered means the packet reached the device owning the
	// destination address.
	Delivered Disposition = iota
	// DropNoRoute means a device had no route to the destination.
	DropNoRoute
	// DropACL means an access list denied the packet.
	DropACL
	// DropARPFail means the next hop address resolved to no adjacent
	// device (down link, missing L2 path).
	DropARPFail
	// DropLoop means the packet exceeded the hop budget (routing loop).
	DropLoop
)

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case DropNoRoute:
		return "no-route"
	case DropACL:
		return "acl-deny"
	case DropARPFail:
		return "arp-fail"
	case DropLoop:
		return "loop"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// Hop records the packet transiting one device.
type Hop struct {
	Device string
	InIf   string // empty at the source device
	OutIf  string // empty at the destination device
}

// Trace is the hop-by-hop fate of one flow.
type Trace struct {
	Flow Flow
	Hops []Hop
	// pos is each hop's device position (hopIndex); seen has bit p%64 per p.
	pos         []uint16
	seen        uint64
	Disposition Disposition
	// Where and Detail describe the drop point, e.g. the ACL that fired.
	Where  string
	Detail string
}

// Delivered reports whether the trace reached its destination.
func (t *Trace) Delivered() bool { return t.Disposition == Delivered }

// Path returns the device names visited, in order.
func (t *Trace) Path() []string {
	out := make([]string, len(t.Hops))
	for i, h := range t.Hops {
		out[i] = h.Device
	}
	return out
}

// Traverses reports whether the trace passes through the named device.
func (t *Trace) Traverses(device string) bool {
	for _, h := range t.Hops {
		if h.Device == device {
			return true
		}
	}
	return false
}

// String renders the trace for consoles and counterexamples.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", t.Flow, t.Disposition)
	if t.Where != "" {
		fmt.Fprintf(&b, " at %s", t.Where)
	}
	if t.Detail != "" {
		fmt.Fprintf(&b, " (%s)", t.Detail)
	}
	b.WriteString(" path=[")
	b.WriteString(strings.Join(t.Path(), " "))
	b.WriteString("]")
	return b.String()
}

const maxHops = 64

// traceBlock is a trace and the backing arrays of its first seven hops and
// their positions: no policy path of any scenario is longer, and the block is
// 512 bytes, the largest object the allocator serves without a header.
type traceBlock struct {
	t    Trace
	hops [7]Hop
	pos  [7]uint16
}

func newTrace(f Flow) *Trace {
	b := &traceBlock{t: Trace{Flow: f}}
	b.t.Hops, b.t.pos = b.hops[:0], b.pos[:0]
	return &b.t
}

// TraceFrom forwards the flow starting at the named device and returns the
// hop-by-hop trace. The source device is usually the host owning f.Src, but
// any device can originate (used by the console's ping command). The walk
// works on the hop index's positions — the destination's owner is looked up
// once, loop detection, the route cell and the ARP step are by position —
// and each hop reads its device from the network and builds its routes if
// no trace or read has yet.
func (s *Snapshot) TraceFrom(src string, f Flow) *Trace {
	h := s.positions()
	t := newTrace(f)
	cur, ok := slices.BinarySearch(h.names, src)
	if !ok {
		t.Disposition, t.Where, t.Detail = DropNoRoute, src, "unknown device"
		return t
	}
	return s.walk(h, t, uint16(cur), "")
}

// walk forwards t's flow from device cur, entered on inIf, after the hops t
// already holds: none from the source, the prefix of the parent's trace a
// resumed retrace keeps (ReachFrom). Loop detection reads their positions.
func (s *Snapshot) walk(h *hopIndex, t *Trace, cur uint16, inIf string) *Trace {
	f := t.Flow
	dst, owned := h.owner[f.Dst]
	for len(t.Hops) < maxHops {
		name := h.names[cur]
		d := s.net.Devices[name]
		if d == nil {
			t.Disposition, t.Where, t.Detail = DropNoRoute, name, "unknown device"
			return t
		}

		if drop := aclStep(d, inIf, "", &f); drop.acl != "" {
			return t.stop(cur, Hop{Device: name, InIf: inIf}, DropACL, name, drop.detail())
		}

		if owned && cur == dst {
			return t.stop(cur, Hop{Device: name, InIf: inIf}, Delivered, "", "")
		}

		// Loop detection: forwarding depends only on the destination, so
		// revisiting a device (a position in t.pos: a handful, scanned
		// linearly) means the packet is caught in a loop.
		if slices.Contains(t.pos, cur) {
			return t.stop(cur, Hop{Device: name, InIf: inIf}, DropLoop, name, "")
		}

		// Route lookup. ECMP selection: the first row of the prefix's run
		// (rows are sorted, so every flow takes the same path,
		// deterministically).
		c := s.cell(int(cur))
		i, ok := c.fib.lookup(f.Dst)
		if !ok {
			return t.stop(cur, Hop{Device: name, InIf: inIf}, DropNoRoute, name, "")
		}
		e := &c.rib.rows[i]
		outIf := c.rib.ifs[e.outIf]
		out := Hop{Device: name, InIf: inIf, OutIf: outIf}

		if drop := aclStep(d, "", outIf, &f); drop.acl != "" {
			return t.stop(cur, out, DropACL, name, drop.detail())
		}

		// Resolve the next hop on the egress segment.
		nhAddr := f.Dst
		if e.hop != 0 {
			nhAddr = e.nextHop()
		}
		next, found := h.resolve(cur, outIf, nhAddr)
		if !found {
			return t.stop(cur, out, DropARPFail, name, "no neighbor "+nhAddr.String()+" via "+outIf)
		}
		t.add(cur, out)
		cur, inIf = next.dev, next.itf
	}
	t.Disposition, t.Where = DropLoop, h.names[cur]
	return t
}

// add appends hop h, on the device at position p.
func (t *Trace) add(p uint16, h Hop) {
	t.Hops, t.pos, t.seen = append(t.Hops, h), append(t.pos, p), t.seen|1<<(p&63)
}

// stop ends the trace at hop h, at position p, with d, where and detail.
func (t *Trace) stop(p uint16, h Hop, d Disposition, where, detail string) *Trace {
	t.add(p, h)
	t.Disposition, t.Where, t.Detail = d, where, detail
	return t
}

// aclDrop is the ACL that denied a flow, its direction and the interface it
// is bound to; the zero value is a pass. is compares a Trace's Detail with
// detail() without building it.
type aclDrop struct{ acl, dir, itf string }

func (a aclDrop) detail() string { return "acl " + a.acl + a.dir + a.itf }

func (a aclDrop) is(detail string) bool {
	n := len(detail) - len(a.itf)
	return n == 4+len(a.acl)+len(a.dir) && detail[:4] == "acl " && detail[4:4+len(a.acl)] == a.acl &&
		detail[4+len(a.acl):n] == a.dir && detail[n:] == a.itf
}

// The directions of an ACL drop's detail.
const dirIn, dirOut = " in on ", " out on "

// aclStep runs a hop's ACLs on d against f, the ingress ACL bound to inIf
// and then the egress ACL bound to outIf, and returns the first drop. walk
// runs it on each half of a hop; replays is the same over resolved bindings.
func aclStep(d *netmodel.Device, inIf, outIf string, f *Flow) aclDrop {
	if inIf != "" {
		if itf := d.Interfaces[inIf]; itf != nil && itf.ACLIn != "" && denies(d, itf.ACLIn, f) {
			return aclDrop{itf.ACLIn, dirIn, inIf}
		}
	}
	if outIf != "" {
		if itf := d.Interfaces[outIf]; itf != nil && itf.ACLOut != "" && denies(d, itf.ACLOut, f) {
			return aclDrop{itf.ACLOut, dirOut, outIf}
		}
	}
	return aclDrop{}
}

// denies reports whether d defines the ACL acl and it denies f.
func denies(d *netmodel.Device, acl string, f *Flow) bool {
	a := d.ACLs[acl]
	return a != nil && a.Evaluate(f.Proto, f.Src, f.Dst, f.SrcPort, f.DstPort) == netmodel.Deny
}

// Reach traces host-to-host traffic: the flow's source and destination
// addresses are looked up from the named hosts. It returns the trace and an
// error when either host is unknown or unaddressed. It is ReachFrom with no
// parent trace.
func (s *Snapshot) Reach(srcHost, dstHost string, proto netmodel.Protocol, dstPort uint16) (*Trace, error) {
	return s.ReachFrom(nil, srcHost, dstHost, proto, dstPort)
}

// ReachFrom is Reach given prev, the flow's trace on the snapshot this one
// was derived from (nil when unknown). When the derivation kept adjacency
// and addresses and prev crosses a hop Carries rejects, the retrace resumes
// at the first: it keeps prev's hops before it, seeds loop detection with
// them and walks on from that hop's device and ingress interface with
// prev's flow. The prefix read nothing that differs but ACLs that give its
// flow the same result and no address moved, so the trace is the one a walk
// from the source gives.
//
// Results are memoized per (srcHost, dstHost, proto, dstPort) for the
// snapshot's lifetime, so policy checkers and the attack-surface sweep can
// re-ask for the same flow without retracing it. A derived snapshot looks
// next in its parent's cache (see Derive) and offers what it has traced
// from the source back to the parent when the trace crosses no stale hop
// (the strict rule, no replay), which is how twins opened on one production
// version share the flows each traces.
// Callers share the returned trace and must treat it as read-only (every
// caller in the tree already does). ReachFrom is safe for concurrent use.
func (s *Snapshot) ReachFrom(prev *Trace, srcHost, dstHost string, proto netmodel.Protocol, dstPort uint16) (*Trace, error) {
	k := flowKey{src: srcHost, dst: dstHost, proto: proto, dstPort: dstPort}
	if r, ok := s.flows.load(k); ok {
		s.flows.hitCtr.Inc()
		return r.tr, r.err
	}
	if prev != nil && s.parentFlows != nil {
		if i := s.firstStale(prev, true); i < len(prev.pos) {
			// A resumed trace crosses the hop it resumed at, so it never
			// carries back to the parent.
			t := newTrace(prev.Flow)
			for k, p := range prev.pos[:i] {
				t.add(p, prev.Hops[k])
			}
			return s.flows.store(k, flowResult{tr: s.walk(s.positions(), t, prev.pos[i], prev.Hops[i].InIf)}).tr, nil
		}
	}
	if r, ok := s.carried(k); ok {
		return r.tr, r.err
	}
	var r flowResult
	if src, ok := s.net.HostAddr(srcHost); !ok {
		r.err = fmt.Errorf("dataplane: no such host %q", srcHost)
	} else if dst, ok := s.net.HostAddr(dstHost); !ok {
		r.err = fmt.Errorf("dataplane: no such host %q", dstHost)
	} else {
		f := Flow{Proto: proto, Src: src, Dst: dst, DstPort: dstPort}
		if proto == netmodel.TCP || proto == netmodel.UDP {
			f.SrcPort = 40000
		}
		r.tr = s.TraceFrom(srcHost, f)
	}
	// The write-back keeps the strict rule: a replay reads only this
	// snapshot's ACLs.
	r = s.flows.store(k, r)
	if s.parentFlows != nil && (r.tr == nil || s.firstStale(r.tr, false) == len(r.tr.Hops)) {
		s.parentFlows.loadOrStore(k, r)
	}
	return r.tr, r.err
}

// carried serves the flow from the parent's cache when the memoized trace
// carries, and memoizes it here so the next generation finds it one level
// up. It counts a hit here and nothing against the parent.
func (s *Snapshot) carried(k flowKey) (flowResult, bool) {
	if s.parentFlows == nil {
		return flowResult{}, false
	}
	r, ok := s.parentFlows.load(k)
	if !ok || !s.Carries(r.tr) {
		return flowResult{}, false
	}
	r, _ = s.flows.loadOrStore(k, r)
	s.flows.hitCtr.Inc()
	s.flows.carriedCtr.Inc()
	return r, true
}

// Carries reports whether a Reach result of the snapshot this one was
// derived from is this one's result too: the derivation kept adjacency and
// addresses (so the trace's hop positions name the same devices), and no
// hop is at a stale position, unless every change there was ChangeACL and
// the new ACLs give the trace's flow the result it took there (a pass, or
// its drop with the same Detail). A hop at a suspect — a device with a new
// route cell but unchanged routing config — is stale when its RIB differs
// from the parent's, decided once per device. An error (tr nil) has no
// hops: it depends on the device set and host addresses only.
// Traces and the verdicts decided on them (verify.CheckCarried) enter this
// snapshot from the parent under this test alone; ReachFrom's write-back
// is the rule the other way. A trace it fails is resumed at its first
// stale hop.
func (s *Snapshot) Carries(tr *Trace) bool {
	return s.parentFlows != nil && (tr == nil || s.firstStale(tr, true) == len(tr.Hops))
}

// firstStale is the index of tr's first hop at a position Derive marked
// stale (with replay, ACL-stale where replays fails) or a suspect whose RIB
// moved, else len(tr.Hops): integer compares only, none when tr's seen bits
// miss every moved one. Only the suspects up to that hop are decided.
func (s *Snapshot) firstStale(tr *Trace, replay bool) int {
	if tr.seen&s.moved == 0 {
		return len(tr.pos)
	}
	for i, p := range tr.pos {
		if slices.Contains(s.stale, p) || slices.Contains(s.aclStale, p) && (!replay || !s.replays(tr, i, p)) {
			return i
		}
		for k := range s.suspects {
			if sp := &s.suspects[k]; sp.pos == p && sp.moved(s) {
				return i
			}
		}
	}
	return len(tr.pos)
}

// replays reports whether hop i of tr, at the ACL-stale position p, gives
// its flow on this snapshot's device the ACL result it took there: the drop
// tr ends in, else a pass. It runs aclStep's two halves over the bindings
// Derive resolved, so it looks nothing up by name.
func (s *Snapshot) replays(tr *Trace, i int, p uint16) bool {
	h, f := &tr.Hops[i], &tr.Flow
	var in, out aclDrop
	for k := range s.bound {
		b := &s.bound[k]
		itf, half := h.OutIf, &out
		if b.drop.dir == dirIn {
			itf, half = h.InIf, &in
		}
		if b.pos == p && itf != "" && b.drop.itf == itf && b.acl != nil &&
			b.acl.Evaluate(f.Proto, f.Src, f.Dst, f.SrcPort, f.DstPort) == netmodel.Deny {
			*half = b.drop
		}
	}
	if i == len(tr.Hops)-1 && tr.Disposition == DropACL {
		return cmp.Or(in, out).is(tr.Detail)
	}
	return in == aclDrop{} && out == aclDrop{}
}

// binding is an ACL bound on an interface of the device at position pos:
// the drop it gives and, resolved, the ACL (nil when the device defines
// none of that name, which passes every flow).
type binding struct {
	pos  uint16
	drop aclDrop
	acl  *netmodel.ACL
}

// appendBindings appends the ACLs bound on d's interfaces, at position p.
func appendBindings(b []binding, p uint16, d *netmodel.Device) []binding {
	for name, itf := range d.Interfaces {
		for _, drop := range [2]aclDrop{{itf.ACLIn, dirIn, name}, {itf.ACLOut, dirOut, name}} {
			if drop.acl != "" {
				b = append(b, binding{p, drop, d.ACLs[drop.acl]})
			}
		}
	}
	return b
}

// BGPPeer describes one configured BGP neighbor and its session state.
type BGPPeer struct {
	LocalDevice string
	PeerAddr    netip.Addr
	RemoteAS    int
	// Established is true when the session formed (mutual configuration,
	// matching AS numbers, shared subnet).
	Established bool
	// PeerDevice is the device owning the peer address once established.
	PeerDevice string
}

// BGPPeers returns the device's configured neighbors with session state.
func (s *Snapshot) BGPPeers(device string) []BGPPeer {
	d := s.net.Devices[device]
	if d == nil || d.BGP == nil {
		return nil
	}
	var out []BGPPeer
	for _, nb := range d.BGP.Neighbors {
		p := BGPPeer{LocalDevice: device, PeerAddr: nb.Addr, RemoteAS: nb.RemoteAS}
		for _, sess := range s.sessions {
			switch {
			case sess.a == device && sess.bAddr == nb.Addr:
				p.Established, p.PeerDevice = true, sess.b
			case sess.b == device && sess.aAddr == nb.Addr:
				p.Established, p.PeerDevice = true, sess.a
			}
		}
		out = append(out, p)
	}
	return out
}

// FormatBGP renders a device's BGP state like "show ip bgp summary".
func (s *Snapshot) FormatBGP(device string) string {
	d := s.net.Devices[device]
	if d == nil || d.BGP == nil {
		return "% BGP not configured"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "BGP local AS %d\n", d.BGP.LocalAS)
	b.WriteString("Neighbor        RemoteAS  State\n")
	for _, p := range s.BGPPeers(device) {
		state := "Idle"
		if p.Established {
			state = "Established (" + p.PeerDevice + ")"
		}
		fmt.Fprintf(&b, "%-15s %-9d %s\n", p.PeerAddr, p.RemoteAS, state)
	}
	var learned []string
	if i, ok := slices.BinarySearch(s.names, device); ok {
		rib := s.cell(i).rib
		for k := range rib.rows {
			if r := &rib.rows[k]; RouteProto(r.proto) == BGP {
				learned = append(learned, "  "+r.entry(rib.ifs).String())
			}
		}
	}
	if len(learned) > 0 {
		b.WriteString("Learned routes:\n")
		b.WriteString(strings.Join(learned, "\n"))
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// FormatRIB renders a device routing table like "show ip route": one line
// per entry, sorted as text. Every line is rendered into one buffer and the
// line spans are sorted, so the cost is three allocations, not one per route.
func (s *Snapshot) FormatRIB(device string) string {
	i, ok := slices.BinarySearch(s.names, device)
	if !ok {
		return "% no routing table"
	}
	rib := s.cell(i).rib
	type span struct{ lo, hi int }
	buf := make([]byte, 0, 64*len(rib.rows))
	lines := make([]span, len(rib.rows))
	for i := range rib.rows {
		lo := len(buf)
		buf = rib.rows[i].entry(rib.ifs).appendTo(buf)
		lines[i] = span{lo, len(buf)}
	}
	slices.SortFunc(lines, func(a, b span) int { return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]) })
	var out strings.Builder
	out.Grow(len(buf) + len(rib.rows))
	for i, l := range lines {
		if i > 0 {
			out.WriteByte('\n')
		}
		out.Write(buf[l.lo:l.hi])
	}
	return out.String()
}
