package dataplane

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"

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
	// FlowHashECMP selects among equal-cost paths by hashing the flow
	// 5-tuple (how real routers load-balance) instead of always taking
	// the first entry. Deterministic per flow either way.
	FlowHashECMP bool
	// Meter receives the snapshot's flow-cache counters
	// (heimdall_dataplane_flowcache_{hits,misses,carried}_total). Nil means
	// no instrumentation; FlowCacheStats works either way.
	Meter telemetry.Meter
}

// Snapshot is the computed forwarding state of one network configuration:
// L2 adjacency, per-device FIBs, and an address index. Snapshots are
// immutable; recompute or Derive one after changing the network.
// Immutability is what makes the per-snapshot flow cache sound: a memoized
// trace can never go stale within one snapshot's lifetime, and a derived
// snapshot takes over only those that avoid every device it changed.
type Snapshot struct {
	net      *netmodel.Network
	adj      adjacency
	ribs     map[string][]FIBEntry
	fibs     map[string]*LPM
	sessions []bgpSession
	opts     Options
	// ospfRoutes and bgpRoutes are the raw per-device protocol routes the
	// RIBs were built from, retained so Derive can rebuild a single
	// device's RIB (or rerun a single protocol pass) without recomputing
	// the rest.
	ospfRoutes map[string][]FIBEntry
	bgpRoutes  map[string][]FIBEntry
	// owner maps every up interface address to its endpoint.
	owner map[netip.Addr]netmodel.Endpoint
	// lsdb is the link-state database ospfRoutes was computed from,
	// retained so Derive can patch it into a mutated network's LSDB and
	// recompute SPF only for sources whose result can actually change.
	lsdb *ospfLSDB
	// flows memoizes Reach results (per snapshot, concurrency-safe).
	flows *flowCache
	// parentFlows is the cache of the snapshot this one was derived from,
	// set only when the derivation kept adj and owner; stale names the
	// devices whose config or RIB differ from that parent. Reach moves
	// traces that avoid stale between the two caches in both directions.
	parentFlows *flowCache
	stale       map[string]bool
}

// Compute builds a snapshot of the network's forwarding behaviour with
// default options.
func Compute(n *netmodel.Network) *Snapshot { return ComputeWithOptions(n, Options{}) }

// ComputeWithOptions builds a snapshot with explicit options.
func ComputeWithOptions(n *netmodel.Network, opts Options) *Snapshot {
	adj := computeAdjacency(n)
	lsdb := buildLSDB(n, adj)
	ospfRoutes := lsdb.routes()
	bgpRoutes := computeBGP(n, adj)
	s := &Snapshot{
		net:        n,
		adj:        adj,
		sessions:   bgpSessions(n, adj),
		opts:       opts,
		ospfRoutes: ospfRoutes,
		bgpRoutes:  bgpRoutes,
		owner:      buildOwner(n),
		lsdb:       lsdb,
		flows:      newFlowCache(opts.Meter),
	}
	s.ribs, s.fibs = buildRIBs(n, n.DeviceNames(), ospfRoutes, bgpRoutes)
	return s
}

// buildRIBs computes the RIB and FIB of every named device. Devices are
// independent given the shared (read-only) protocol routes,
// so the builds fan out over a bounded pool; results land in
// index-addressed slots, making the maps identical to a serial build.
func buildRIBs(n *netmodel.Network, devs []string,
	ospfRoutes, bgpRoutes map[string][]FIBEntry) (map[string][]FIBEntry, map[string]*LPM) {

	ribSlots := make([][]FIBEntry, len(devs))
	fibSlots := make([]*LPM, len(devs))
	fanOut(len(devs), func(i int) {
		ribSlots[i] = ribFor(n, devs[i], ospfRoutes, bgpRoutes)
		fibSlots[i] = newLPM(ribSlots[i])
	})

	ribs := make(map[string][]FIBEntry, len(devs))
	fibs := make(map[string]*LPM, len(devs))
	for i, dev := range devs {
		ribs[dev] = ribSlots[i]
		fibs[dev] = fibSlots[i]
	}
	return ribs, fibs
}

// buildOwner indexes every L3 endpoint address to its owning endpoint.
func buildOwner(n *netmodel.Network) map[netip.Addr]netmodel.Endpoint {
	owner := make(map[netip.Addr]netmodel.Endpoint)
	for _, dev := range n.DeviceNames() {
		d := n.Devices[dev]
		for _, ifName := range d.InterfaceNames() {
			itf := d.Interfaces[ifName]
			if l3Endpoint(itf) {
				owner[itf.Addr.Addr()] = netmodel.Endpoint{Device: dev, Interface: ifName}
			}
		}
	}
	return owner
}

// RIB returns the device's routing table (best paths, sorted).
func (s *Snapshot) RIB(device string) []FIBEntry { return s.ribs[device] }

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
	Flow        Flow
	Hops        []Hop
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

// flowHash is an FNV-1a hash of the flow 5-tuple, used for ECMP selection.
func flowHash(f Flow) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
	mixAddr := func(a netip.Addr) {
		if a.Is4() {
			for _, b := range a.As4() {
				mix(b)
			}
			return
		}
		for _, b := range a.As16() {
			mix(b)
		}
	}
	mixAddr(f.Src)
	mixAddr(f.Dst)
	mix(byte(f.Proto))
	mix(byte(f.SrcPort >> 8))
	mix(byte(f.SrcPort))
	mix(byte(f.DstPort >> 8))
	mix(byte(f.DstPort))
	return h
}

// TraceFrom forwards the flow starting at the named device and returns the
// hop-by-hop trace. The source device is usually the host owning f.Src, but
// any device can originate (used by the console's ping command).
func (s *Snapshot) TraceFrom(src string, f Flow) *Trace {
	t := &Trace{Flow: f, Hops: make([]Hop, 0, 8)}
	cur := src
	inIf := ""
	// Loop detection state: a plain slice scanned linearly beats a map
	// here — the hop budget is 64 and real paths are a handful of hops,
	// so the scan is a few pointer compares with no hashing or allocation.
	visited := make([]string, 0, 8)
	for hop := 0; hop < maxHops; hop++ {
		d := s.net.Devices[cur]
		if d == nil {
			t.Disposition = DropNoRoute
			t.Where = cur
			t.Detail = "unknown device"
			return t
		}

		// Ingress ACL.
		if inIf != "" {
			itf := d.Interface(inIf)
			if itf != nil && itf.ACLIn != "" {
				if acl := d.ACL(itf.ACLIn, false); acl != nil {
					if acl.Evaluate(f.Proto, f.Src, f.Dst, f.SrcPort, f.DstPort) == netmodel.Deny {
						t.Hops = append(t.Hops, Hop{Device: cur, InIf: inIf})
						t.Disposition = DropACL
						t.Where = cur
						t.Detail = fmt.Sprintf("acl %s in on %s", itf.ACLIn, inIf)
						return t
					}
				}
			}
		}

		// Delivered?
		if owner, ok := s.owner[f.Dst]; ok && owner.Device == cur {
			t.Hops = append(t.Hops, Hop{Device: cur, InIf: inIf})
			t.Disposition = Delivered
			return t
		}

		// Loop detection: forwarding depends only on the destination, so
		// revisiting a device means the packet is caught in a loop.
		for _, v := range visited {
			if v == cur {
				t.Hops = append(t.Hops, Hop{Device: cur, InIf: inIf})
				t.Disposition = DropLoop
				t.Where = cur
				return t
			}
		}
		visited = append(visited, cur)

		// Route lookup.
		entries, ok := s.fibs[cur].Lookup(f.Dst)
		if !ok || len(entries) == 0 {
			t.Hops = append(t.Hops, Hop{Device: cur, InIf: inIf})
			t.Disposition = DropNoRoute
			t.Where = cur
			return t
		}
		// ECMP selection: first entry by default (entries are sorted, so
		// deterministic), or a per-flow hash when enabled.
		e := entries[0]
		if s.opts.FlowHashECMP && len(entries) > 1 {
			e = entries[int(flowHash(f)%uint32(len(entries)))]
		}

		// Egress ACL.
		outItf := d.Interface(e.OutIf)
		if outItf != nil && outItf.ACLOut != "" {
			if acl := d.ACL(outItf.ACLOut, false); acl != nil {
				if acl.Evaluate(f.Proto, f.Src, f.Dst, f.SrcPort, f.DstPort) == netmodel.Deny {
					t.Hops = append(t.Hops, Hop{Device: cur, InIf: inIf, OutIf: e.OutIf})
					t.Disposition = DropACL
					t.Where = cur
					t.Detail = fmt.Sprintf("acl %s out on %s", outItf.ACLOut, e.OutIf)
					return t
				}
			}
		}

		// Resolve the next hop on the egress segment.
		nhAddr := e.NextHop
		if e.Connected() {
			nhAddr = f.Dst
		}
		nextEp, found := s.resolve(netmodel.Endpoint{Device: cur, Interface: e.OutIf}, nhAddr)
		if !found {
			t.Hops = append(t.Hops, Hop{Device: cur, InIf: inIf, OutIf: e.OutIf})
			t.Disposition = DropARPFail
			t.Where = cur
			t.Detail = fmt.Sprintf("no neighbor %s via %s", nhAddr, e.OutIf)
			return t
		}

		t.Hops = append(t.Hops, Hop{Device: cur, InIf: inIf, OutIf: e.OutIf})
		cur = nextEp.Device
		inIf = nextEp.Interface
	}
	t.Disposition = DropLoop
	t.Where = cur
	return t
}

// resolve finds the adjacent endpoint owning addr as seen from the egress
// endpoint (the ARP step).
func (s *Snapshot) resolve(from netmodel.Endpoint, addr netip.Addr) (netmodel.Endpoint, bool) {
	for _, ep := range s.adj[from] {
		d := s.net.Devices[ep.Device]
		if d == nil {
			continue
		}
		itf := d.Interface(ep.Interface)
		if itf != nil && itf.HasAddr() && itf.Addr.Addr() == addr {
			return ep, true
		}
	}
	return netmodel.Endpoint{}, false
}

// Reach traces host-to-host traffic: the flow's source and destination
// addresses are looked up from the named hosts. It returns the trace and an
// error when either host is unknown or unaddressed.
//
// Results are memoized per (srcHost, dstHost, proto, dstPort) for the
// snapshot's lifetime, so policy checkers and the attack-surface sweep can
// re-ask for the same flow without retracing it. A derived snapshot looks
// next in its parent's cache (see Derive) and offers what it has to trace
// itself back to the parent when that trace is clean too, which is how a
// held production snapshot nobody calls Reach on fills from its first
// review. Callers share the returned trace and must treat it as read-only
// (every caller in the tree already does). Reach is safe for concurrent use.
func (s *Snapshot) Reach(srcHost, dstHost string, proto netmodel.Protocol, dstPort uint16) (*Trace, error) {
	k := flowKey{src: srcHost, dst: dstHost, proto: proto, dstPort: dstPort}
	if r, ok := s.flows.lookup(k); ok {
		return r.tr, r.err
	}
	if r, ok := s.carried(k); ok {
		return r.tr, r.err
	}
	tr, err := s.reach(srcHost, dstHost, proto, dstPort)
	r := s.flows.store(k, &flowResult{tr: tr, err: err})
	if s.Carries(r.tr) {
		s.parentFlows.m.LoadOrStore(k, r)
	}
	return r.tr, r.err
}

// carried serves the flow from the parent's cache when the memoized trace
// is clean, and memoizes it here so the next generation finds it one level
// up. The parent's own counters do not move: they count its Reach calls.
func (s *Snapshot) carried(k flowKey) (*flowResult, bool) {
	if s.parentFlows == nil {
		return nil, false
	}
	v, ok := s.parentFlows.m.Load(k)
	if !ok || !s.Carries(v.(*flowResult).tr) {
		return nil, false
	}
	v, _ = s.flows.m.LoadOrStore(k, v)
	s.flows.hits.Add(1)
	s.flows.hitCtr.Inc()
	s.flows.carriedCtr.Inc()
	return v.(*flowResult), true
}

// Carries reports whether a Reach result of the snapshot this one was
// derived from is this one's result too (and the reverse): the derivation
// kept adjacency and owner and no hop is a stale device, so the trace read
// nothing that differs between the two. An error (tr nil) has no hops: it
// depends on the device set and host addresses only. Traces move between
// the two flow caches under this test, and so do the policy verdicts decided
// on them (verify.CheckCarried): there is no other staleness rule.
func (s *Snapshot) Carries(tr *Trace) bool {
	if s.parentFlows == nil {
		return false
	}
	if tr != nil {
		for i := range tr.Hops {
			if s.stale[tr.Hops[i].Device] {
				return false
			}
		}
	}
	return true
}

// reach is the uncached trace computation behind Reach.
func (s *Snapshot) reach(srcHost, dstHost string, proto netmodel.Protocol, dstPort uint16) (*Trace, error) {
	src, ok := s.net.HostAddr(srcHost)
	if !ok {
		return nil, fmt.Errorf("dataplane: no such host %q", srcHost)
	}
	dst, ok := s.net.HostAddr(dstHost)
	if !ok {
		return nil, fmt.Errorf("dataplane: no such host %q", dstHost)
	}
	f := Flow{Proto: proto, Src: src, Dst: dst, DstPort: dstPort}
	if proto == netmodel.TCP || proto == netmodel.UDP {
		f.SrcPort = 40000
	}
	return s.TraceFrom(srcHost, f), nil
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
	for _, e := range s.ribs[device] {
		if e.Proto == BGP {
			learned = append(learned, "  "+e.String())
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
	rib := s.ribs[device]
	if rib == nil {
		return "% no routing table"
	}
	type span struct{ lo, hi int }
	buf := make([]byte, 0, 64*len(rib))
	lines := make([]span, len(rib))
	for i, e := range rib {
		lo := len(buf)
		buf = e.appendTo(buf)
		lines[i] = span{lo, len(buf)}
	}
	slices.SortFunc(lines, func(a, b span) int { return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]) })
	var out strings.Builder
	out.Grow(len(buf) + len(rib))
	for i, l := range lines {
		if i > 0 {
			out.WriteByte('\n')
		}
		out.Write(buf[l.lo:l.hi])
	}
	return out.String()
}
