package ticket

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
)

func newSystem() *System {
	s := NewSystem()
	s.SetClock(func() time.Time { return time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC) })
	return s
}

func TestLifecycle(t *testing.T) {
	s := newSystem()
	tk := s.Create(Ticket{Summary: "h1 cannot reach h2", Kind: privilege.TaskConnectivity,
		SrcHost: "h1", DstHost: "h2", CreatedBy: "netadmin"})
	if tk.ID != "T-0001" || tk.Status != Open {
		t.Fatalf("created = %+v", tk)
	}
	if err := s.Assign(tk.ID, "alice"); err != nil {
		t.Fatal(err)
	}
	if got := s.Get(tk.ID); got.Status != InProgress || got.Assignee != "alice" {
		t.Fatalf("after assign = %+v", got)
	}
	if err := s.AddNote(tk.ID, "root cause: ACL on r2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Transition(tk.ID, Resolved); err != nil {
		t.Fatal(err)
	}
	if err := s.Transition(tk.ID, Closed); err != nil {
		t.Fatal(err)
	}
	// Closed is terminal.
	if err := s.Transition(tk.ID, InProgress); err == nil {
		t.Fatal("transition out of closed accepted")
	}
	// A second ticket gets the next ID.
	tk2 := s.Create(Ticket{Summary: "other"})
	if tk2.ID != "T-0002" {
		t.Fatalf("second ID = %s", tk2.ID)
	}
	if got := s.List(); len(got) != 2 || got[0].ID != "T-0001" {
		t.Fatalf("List = %+v", got)
	}
}

func TestInvalidTransitionsAndMissing(t *testing.T) {
	s := newSystem()
	tk := s.Create(Ticket{Summary: "x"})
	if err := s.Transition(tk.ID, Resolved); err == nil {
		t.Fatal("open -> resolved accepted")
	}
	if err := s.Transition("T-9999", InProgress); err == nil {
		t.Fatal("missing ticket accepted")
	}
	if err := s.Assign("T-9999", "a"); err == nil {
		t.Fatal("assign to missing ticket accepted")
	}
	if err := s.AddNote("T-9999", "n"); err == nil {
		t.Fatal("note on missing ticket accepted")
	}
	if s.Get("T-9999") != nil {
		t.Fatal("Get of missing ticket non-nil")
	}
}

func TestRejectedFlow(t *testing.T) {
	s := newSystem()
	tk := s.Create(Ticket{Summary: "x"})
	if err := s.Assign(tk.ID, "mallory"); err != nil {
		t.Fatal(err)
	}
	if err := s.Transition(tk.ID, Rejected); err != nil {
		t.Fatal(err)
	}
	// A rejected ticket can be retried.
	if err := s.Transition(tk.ID, InProgress); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		Open: "open", InProgress: "in-progress", Resolved: "resolved",
		Rejected: "rejected", Closed: "closed",
	} {
		if st.String() != want {
			t.Errorf("%d = %q", int(st), st.String())
		}
	}
}

// faultNet builds a network where every fault type is injectable and its
// prepared fix genuinely restores connectivity.
func faultNet() *netmodel.Network {
	n := netmodel.NewNetwork("f")
	r1 := n.AddDevice("r1", netmodel.Router)
	r2 := n.AddDevice("r2", netmodel.Router)
	h1 := n.AddDevice("h1", netmodel.Host)
	h2 := n.AddDevice("h2", netmodel.Host)
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "h2", "eth0")
	h1.Interface("eth0").Addr = netip.MustParsePrefix("10.1.0.10/24")
	h1.DefaultGateway = netip.MustParseAddr("10.1.0.1")
	r1.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.1.0.1/24")
	r1.Interface("Gi0/1").Addr = netip.MustParsePrefix("10.0.12.1/30")
	r2.Interface("Gi0/0").Addr = netip.MustParsePrefix("10.0.12.2/30")
	r2.Interface("Gi0/1").Addr = netip.MustParsePrefix("10.2.0.1/24")
	h2.Interface("eth0").Addr = netip.MustParsePrefix("10.2.0.10/24")
	h2.DefaultGateway = netip.MustParseAddr("10.2.0.1")
	for _, r := range []*netmodel.Device{r1, r2} {
		r.OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Area: 0}},
			Passive:  map[string]bool{}}
	}
	acl := r2.ACL("EDGE", true)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 100, Action: netmodel.Permit})
	r2.Interface("Gi0/0").ACLIn = "EDGE"
	return n
}

func reaches(n *netmodel.Network, proto netmodel.Protocol, port uint16) bool {
	tr, err := dataplane.Compute(n).Reach("h1", "h2", proto, port)
	return err == nil && tr.Delivered()
}

func TestFaultsBreakAndFixesRestore(t *testing.T) {
	faults := []struct {
		fault Fault
		proto netmodel.Protocol
		port  uint16
	}{
		{InterfaceDown("r2", "Gi0/0"), netmodel.ICMP, 0},
		{ACLDeny("r2", "EDGE", 50, netip.MustParsePrefix("10.2.0.10/32"), 80), netmodel.TCP, 80},
		{OSPFPassive("r1", "Gi0/1"), netmodel.ICMP, 0},
	}
	for _, tc := range faults {
		n := faultNet()
		if !reaches(n, tc.proto, tc.port) {
			t.Fatalf("%s: baseline broken", tc.fault.Name)
		}
		if err := tc.fault.Inject(n); err != nil {
			t.Fatalf("%s: inject: %v", tc.fault.Name, err)
		}
		if reaches(n, tc.proto, tc.port) {
			t.Fatalf("%s: fault did not break connectivity", tc.fault.Name)
		}
		if tc.fault.RootCause == "" || len(tc.fault.Fix) == 0 {
			t.Fatalf("%s: missing root cause or fix", tc.fault.Name)
		}
	}
}

func TestBadStaticRouteFault(t *testing.T) {
	n := faultNet()
	// Give r1 a static route to a far subnet (the "ISP prefix") via r2 and
	// corrupt it.
	far := netip.MustParsePrefix("198.51.100.0/24")
	n.Devices["r1"].StaticRoutes = append(n.Devices["r1"].StaticRoutes,
		netmodel.StaticRoute{Prefix: far, NextHop: netip.MustParseAddr("10.0.12.2")})
	f := BadStaticRoute("r1", far, netip.MustParseAddr("10.1.0.99"), netip.MustParseAddr("10.0.12.2"))
	if err := f.Inject(n); err != nil {
		t.Fatal(err)
	}
	if n.Devices["r1"].StaticRoutes[len(n.Devices["r1"].StaticRoutes)-1].NextHop != netip.MustParseAddr("10.1.0.99") {
		t.Fatal("route not corrupted")
	}
	if len(f.Fix) != 2 || !strings.Contains(f.Fix[0].Line, "no ip route") {
		t.Fatalf("fix = %+v", f.Fix)
	}
}

func TestWrongAccessVLANFault(t *testing.T) {
	n := netmodel.NewNetwork("v")
	sw := n.AddDevice("sw1", netmodel.Switch)
	h := n.AddDevice("h1", netmodel.Host)
	n.MustConnect("h1", "eth0", "sw1", "Gi1/0/1")
	p := sw.Interface("Gi1/0/1")
	p.Mode, p.AccessVLAN = netmodel.Access, 10
	f := WrongAccessVLAN("sw1", "Gi1/0/1", 30, 10)
	if err := f.Inject(n); err != nil {
		t.Fatal(err)
	}
	if got := n.Devices["sw1"].Interface("Gi1/0/1"); got.AccessVLAN != 30 || p.AccessVLAN != 10 {
		t.Fatal("VLAN not changed, or changed on the device the fault read")
	}
	if f.Kind != privilege.TaskVLAN {
		t.Fatal("wrong kind")
	}
	_ = h
	// Injecting on a routed port fails.
	n.Devices["sw1"].Interface("Gi1/0/1").Mode = netmodel.Routed
	if err := WrongAccessVLAN("sw1", "Gi1/0/1", 30, 10).Inject(n); err == nil {
		t.Fatal("routed port accepted")
	}
}

func TestFaultInjectErrors(t *testing.T) {
	n := faultNet()
	bad := []Fault{
		InterfaceDown("ghost", "Gi0/0"),
		InterfaceDown("r1", "Gi9/9"),
		ACLDeny("r1", "NOPE", 10, netip.MustParsePrefix("10.0.0.0/8"), 80),
		OSPFPassive("h1", "eth0"), // hosts have no OSPF
		BadStaticRoute("r1", netip.MustParsePrefix("203.0.113.0/24"), netip.MustParseAddr("1.2.3.4"), netip.MustParseAddr("5.6.7.8")),
	}
	for _, f := range bad {
		if err := f.Inject(n); err == nil {
			t.Errorf("%s: expected inject error", f.Name)
		}
	}
}
