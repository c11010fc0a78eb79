package netmodel

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"
)

// Endpoint names one end of a link: an interface on a device.
type Endpoint struct {
	Device    string
	Interface string
}

// String returns "device:interface".
func (e Endpoint) String() string { return e.Device + ":" + e.Interface }

// Link is a point-to-point cable between two interfaces.
type Link struct {
	A, B Endpoint
}

// Other returns the endpoint opposite to the one on the named device and
// whether the link touches that device at all.
func (l *Link) Other(device string) (Endpoint, bool) {
	switch device {
	case l.A.Device:
		return l.B, true
	case l.B.Device:
		return l.A, true
	}
	return Endpoint{}, false
}

// Touches reports whether the link attaches to the given interface.
func (l *Link) Touches(device, itf string) bool {
	return (l.A.Device == device && l.A.Interface == itf) ||
		(l.B.Device == device && l.B.Interface == itf)
}

// Network is the complete model of a managed network: its devices and the
// physical links between them.
type Network struct {
	Name    string
	Devices map[string]*Device
	Links   []*Link
	// cab indexes Links, built at the first read that needs it and shared
	// with every CloneCOW copy (see cabling).
	cab atomic.Pointer[cabling]
}

// cabling indexes a network's cables: every device by position, the far end
// of each cable by position, and the link at each endpoint. Links are never
// written in place, so an index holds while the Links slice (its length and
// first element) and the device count it was built from do: Connect drops
// it, and a network whose Links were appended to or whose devices were
// added to builds a new one at its next read.
type cabling struct {
	links   []*Link
	devices int            // positions below it are devices of the network
	pos     map[string]int // the devices first, then names only a link mentions
	names   []string
	adj     [][]int            // per position, the far end of each cable on it
	at      map[Endpoint]*Link // the first link on each endpoint
}

// cabling returns the network's index of its links, built anew when stale.
func (n *Network) cabling() *cabling {
	c := n.cab.Load()
	if c != nil && c.devices == len(n.Devices) && len(c.links) == len(n.Links) &&
		(len(n.Links) == 0 || &c.links[0] == &n.Links[0]) {
		return c
	}
	c = &cabling{links: n.Links, devices: len(n.Devices), pos: make(map[string]int, len(n.Devices)),
		names: make([]string, 0, len(n.Devices)), at: make(map[Endpoint]*Link, 2*len(n.Links))}
	for name := range n.Devices {
		c.position(name)
	}
	for _, l := range n.Links {
		a, b := c.position(l.A.Device), c.position(l.B.Device)
		c.adj[a] = append(c.adj[a], b)
		c.adj[b] = append(c.adj[b], a)
		for _, ep := range [2]Endpoint{l.A, l.B} {
			if c.at[ep] == nil {
				c.at[ep] = l
			}
		}
	}
	n.cab.Store(c)
	return c
}

// position returns name's position, giving it the next one if it has none.
func (c *cabling) position(name string) int {
	p, ok := c.pos[name]
	if !ok {
		p = len(c.names)
		c.pos[name] = p
		c.names = append(c.names, name)
		c.adj = append(c.adj, nil)
	}
	return p
}

// NewNetwork returns an empty network.
func NewNetwork(name string) *Network {
	return &Network{Name: name, Devices: make(map[string]*Device)}
}

// AddDevice creates and registers a device. It panics if the name is taken,
// since topologies are built programmatically and a duplicate is a bug.
func (n *Network) AddDevice(name string, kind DeviceKind) *Device {
	if _, ok := n.Devices[name]; ok {
		panic(fmt.Sprintf("netmodel: duplicate device %q", name))
	}
	d := NewDevice(name, kind)
	n.Devices[name] = d
	return d
}

// DeviceNames returns all device names in sorted order.
func (n *Network) DeviceNames() []string {
	names := make([]string, 0, len(n.Devices))
	for name := range n.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Connect cables devA:ifA to devB:ifB, creating the interfaces when they do
// not exist yet. It returns an error when either device is missing or either
// interface is already cabled.
func (n *Network) Connect(devA, ifA, devB, ifB string) error {
	da, db := n.Devices[devA], n.Devices[devB]
	if da == nil {
		return fmt.Errorf("netmodel: connect: unknown device %q", devA)
	}
	if db == nil {
		return fmt.Errorf("netmodel: connect: unknown device %q", devB)
	}
	for _, l := range n.Links {
		if l.Touches(devA, ifA) {
			return fmt.Errorf("netmodel: connect: %s:%s already cabled", devA, ifA)
		}
		if l.Touches(devB, ifB) {
			return fmt.Errorf("netmodel: connect: %s:%s already cabled", devB, ifB)
		}
	}
	da.AddInterface(ifA)
	db.AddInterface(ifB)
	n.Links = append(n.Links, &Link{
		A: Endpoint{Device: devA, Interface: ifA},
		B: Endpoint{Device: devB, Interface: ifB},
	})
	n.cab.Store(nil)
	return nil
}

// MustConnect is Connect that panics on error, for use in generators.
func (n *Network) MustConnect(devA, ifA, devB, ifB string) {
	if err := n.Connect(devA, ifA, devB, ifB); err != nil {
		panic(err)
	}
}

// LinkAt returns the link attached to the given interface, or nil.
func (n *Network) LinkAt(device, itf string) *Link {
	return n.cabling().at[Endpoint{Device: device, Interface: itf}]
}

// Neighbors returns the names of devices directly cabled to the given
// device, sorted and without duplicates.
func (n *Network) Neighbors(device string) []string {
	c := n.cabling()
	var ends []int
	if p, ok := c.pos[device]; ok {
		ends = c.adj[p]
	}
	out := make([]string, 0, len(ends))
	for _, q := range ends {
		if c.names[q] != device {
			out = append(out, c.names[q])
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := NewNetwork(n.Name)
	for name, d := range n.Devices {
		c.Devices[name] = d.Clone()
	}
	c.Links = make([]*Link, len(n.Links))
	for i, l := range n.Links {
		ll := *l
		c.Links[i] = &ll
	}
	return c
}

// CloneCOW returns a copy-on-write clone: the named devices are deep-cloned
// and safe to mutate, every other *Device pointer is shared with the
// receiver. The shared devices MUST be treated as immutable by both sides —
// writing one writes the other network (and races with its readers; a
// writer replaces a device instead, as config.ApplyChange returns one). Links are shared too (the slice is capped, so appending to
// the clone's Links cannot clobber the receiver's backing array); Connect-ing
// new cables on a COW clone is safe, but mutating an existing Link is not.
//
// This is what makes the attack-surface mutation sweep cheap: a trial that
// touches one device pays one Device.Clone instead of a full deep copy of
// the network. TestCloneCOWAliasing pins the sharing contract.
func (n *Network) CloneCOW(mutated ...string) *Network {
	c := &Network{Name: n.Name, Devices: make(map[string]*Device, len(n.Devices))}
	for name, d := range n.Devices {
		c.Devices[name] = d
	}
	for _, name := range mutated {
		if d, ok := n.Devices[name]; ok {
			c.Devices[name] = d.Clone()
		}
	}
	c.Links = n.Links[:len(n.Links):len(n.Links)]
	c.cab.Store(n.cabling())
	return c
}

// Validate checks structural invariants: every link endpoint names an
// existing device and interface, no interface is cabled twice, and no two
// up interfaces carry the same IP address.
func (n *Network) Validate() error {
	cabled := make(map[Endpoint]bool)
	for _, l := range n.Links {
		for _, ep := range []Endpoint{l.A, l.B} {
			d := n.Devices[ep.Device]
			if d == nil {
				return fmt.Errorf("netmodel: link endpoint %s: unknown device", ep)
			}
			if d.Interface(ep.Interface) == nil {
				return fmt.Errorf("netmodel: link endpoint %s: unknown interface", ep)
			}
			if cabled[ep] {
				return fmt.Errorf("netmodel: interface %s cabled twice", ep)
			}
			cabled[ep] = true
		}
	}
	addrs := make(map[netip.Addr]string)
	for _, name := range n.DeviceNames() {
		d := n.Devices[name]
		for _, in := range d.InterfaceNames() {
			itf := d.Interfaces[in]
			if !itf.HasAddr() || itf.Shutdown {
				continue
			}
			a := itf.Addr.Addr()
			if prev, ok := addrs[a]; ok {
				return fmt.Errorf("netmodel: duplicate address %s on %s:%s and %s", a, name, in, prev)
			}
			addrs[a] = name + ":" + in
		}
	}
	return nil
}

// Hosts returns the names of all host devices, sorted.
func (n *Network) Hosts() []string {
	var out []string
	for _, name := range n.DeviceNames() {
		if n.Devices[name].Kind == Host {
			out = append(out, name)
		}
	}
	return out
}

// RoutersAndSwitches returns the names of all non-host devices, sorted.
func (n *Network) RoutersAndSwitches() []string {
	var out []string
	for _, name := range n.DeviceNames() {
		if n.Devices[name].Kind != Host {
			out = append(out, name)
		}
	}
	return out
}

// HostAddr returns the primary address of a host device — that of its
// first addressed interface in name order — and whether the device exists,
// is a host, and has an address. Every trace starts here twice, so the
// interface is picked in one pass over the map, without allocating.
func (n *Network) HostAddr(name string) (netip.Addr, bool) {
	d := n.Devices[name]
	if d == nil || d.Kind != Host {
		return netip.Addr{}, false
	}
	var first string
	var addr netip.Addr
	for in, itf := range d.Interfaces {
		if itf.HasAddr() && (!addr.IsValid() || in < first) {
			first, addr = in, itf.Addr.Addr()
		}
	}
	return addr, addr.IsValid()
}

// PathsBetween returns every device on any simple path between src and dst
// whose length is at most slack hops longer than the shortest path. It is
// the topological core of the twin network's task-driven slice.
func (n *Network) PathsBetween(src, dst string, slack int) map[string]bool {
	c := n.cabling()
	out := make(map[string]bool)
	s, okS := c.pos[src]
	d, okD := c.pos[dst]
	if !okS || !okD || s >= c.devices || d >= c.devices {
		return out
	}
	fromSrc := c.bfs(s)
	shortest := fromSrc[d]
	if shortest < 0 {
		return out
	}
	// A node v is on a path of length <= shortest+slack iff
	// dist(src,v)+dist(v,dst) <= shortest+slack.
	fromDst := c.bfs(d)
	for v, ds := range fromSrc {
		if dd := fromDst[v]; ds >= 0 && dd >= 0 && ds+dd <= shortest+slack {
			out[c.names[v]] = true
		}
	}
	return out
}

// bfs returns the hop count from start to every device by position, -1
// where it is unreachable. A name only a link mentions is no device, so no
// path runs through it; a parallel cable lists a neighbour twice and a
// self-loop lists a device as its own neighbour, and neither changes the
// search.
func (c *cabling) bfs(start int) []int {
	dist := make([]int, c.devices)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := append(make([]int, 0, c.devices), start)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range c.adj[cur] {
			if next < c.devices && dist[next] < 0 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}
