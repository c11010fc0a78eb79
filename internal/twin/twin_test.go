package twin

import (
	"errors"
	"maps"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
)

// prodNet: h1 - r1 - r2 - r3 - h2 with an extra stub router r4 and a
// sensitive host h3 hanging off r4 (outside the h1<->h2 task).
func prodNet() *netmodel.Network {
	n := netmodel.NewNetwork("prod")
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		n.AddDevice(r, netmodel.Router)
	}
	for _, h := range []string{"h1", "h2", "h3"} {
		n.AddDevice(h, netmodel.Host)
	}
	n.MustConnect("h1", "eth0", "r1", "Gi0/0")
	n.MustConnect("r1", "Gi0/1", "r2", "Gi0/0")
	n.MustConnect("r2", "Gi0/1", "r3", "Gi0/0")
	n.MustConnect("r3", "Gi0/1", "h2", "eth0")
	n.MustConnect("r2", "Gi0/2", "r4", "Gi0/0")
	n.MustConnect("r4", "Gi0/1", "h3", "eth0")

	set := func(dev, itf, addr string) {
		n.Devices[dev].Interface(itf).Addr = netip.MustParsePrefix(addr)
	}
	set("h1", "eth0", "10.1.0.10/24")
	n.Devices["h1"].DefaultGateway = netip.MustParseAddr("10.1.0.1")
	set("r1", "Gi0/0", "10.1.0.1/24")
	set("r1", "Gi0/1", "10.0.12.1/30")
	set("r2", "Gi0/0", "10.0.12.2/30")
	set("r2", "Gi0/1", "10.0.23.1/30")
	set("r3", "Gi0/0", "10.0.23.2/30")
	set("r3", "Gi0/1", "10.2.0.1/24")
	set("h2", "eth0", "10.2.0.10/24")
	n.Devices["h2"].DefaultGateway = netip.MustParseAddr("10.2.0.1")
	set("r2", "Gi0/2", "10.0.24.1/30")
	set("r4", "Gi0/0", "10.0.24.2/30")
	set("r4", "Gi0/1", "10.3.0.1/24")
	set("h3", "eth0", "10.3.0.10/24")
	n.Devices["h3"].DefaultGateway = netip.MustParseAddr("10.3.0.1")

	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		n.Devices[r].OSPF = &netmodel.OSPFProcess{ProcessID: 1,
			Networks: []netmodel.OSPFNetwork{{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Area: 0}},
			Passive:  map[string]bool{}}
	}
	n.Devices["r1"].Secrets["enable"] = "prod-secret"
	return n
}

func allowAllSpec() *privilege.Spec {
	return &privilege.Spec{Ticket: "T1", Technician: "alice", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "*", Resource: "*"},
	}}
}

func TestTwinIsolatesProduction(t *testing.T) {
	prod := prodNet()
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prod, Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tw.OpenConsole("r2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("interface Gi0/1 shutdown"); err != nil {
		t.Fatal(err)
	}
	if prod.Devices["r2"].Interface("Gi0/1").Shutdown {
		t.Fatal("twin change leaked into production")
	}
	if !tw.Network().Devices["r2"].Interface("Gi0/1").Shutdown {
		t.Fatal("twin change not applied to emulation layer")
	}
}

func TestTwinSanitizesSecrets(t *testing.T) {
	tw, _ := New(Config{Ticket: "T1", Technician: "alice", Production: prodNet(), Spec: allowAllSpec()})
	sess, _ := tw.OpenConsole("r1")
	out, err := sess.Exec("show running-config")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "prod-secret") {
		t.Fatal("twin console leaks production secrets")
	}
	if !strings.Contains(out, "<redacted>") {
		t.Fatal("expected redaction marker in running config")
	}
}

func TestReferenceMonitorEnforcesPrivileges(t *testing.T) {
	spec := &privilege.Spec{Ticket: "T1", Technician: "alice", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "show.*", Resource: "device:*"},
		{Effect: privilege.AllowEffect, Action: "diag.*", Resource: "device:*"},
		{Effect: privilege.AllowEffect, Action: "config.acl.*", Resource: "device:r3"},
	}}
	trail := audit.NewTrail([]byte("k"))
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prodNet(), Spec: spec, Trail: trail})
	if err != nil {
		t.Fatal(err)
	}

	r3, _ := tw.OpenConsole("r3")
	if _, err := r3.Exec("show ip route"); err != nil {
		t.Fatalf("allowed show failed: %v", err)
	}
	if _, err := r3.Exec("access-list EDGE 10 permit ip any any"); err != nil {
		t.Fatalf("allowed acl change failed: %v", err)
	}
	// Interface shutdown is not granted.
	_, err = r3.Exec("interface Gi0/1 shutdown")
	var denied *ErrDenied
	if !errors.As(err, &denied) {
		t.Fatalf("expected ErrDenied, got %v", err)
	}
	if denied.Action != "config.interface.set" {
		t.Fatalf("denied action = %s", denied.Action)
	}
	// ACL changes on another device are denied too.
	r1, _ := tw.OpenConsole("r1")
	if _, err := r1.Exec("access-list X 10 permit ip any any"); err == nil {
		t.Fatal("acl change on r1 should be denied")
	}

	// Every decision is on the audit trail.
	var denies, allows int
	for _, e := range trail.Links() {
		if e.Kind == audit.KindDecision {
			if e.Allowed {
				allows++
			} else {
				denies++
			}
		}
	}
	if denies != 2 || allows < 2 {
		t.Fatalf("audit decisions: %d denies, %d allows", denies, allows)
	}
	// A line that fails to parse is logged as not allowed; an allowed
	// command whose execution fails logs its failure as allowed.
	if _, err := r3.Exec("frobnicate the widget"); err == nil {
		t.Fatal("an unparseable line ran")
	}
	if _, err := r3.Exec("no access-list EDGE 99"); err == nil {
		t.Fatal("removing a missing ACL entry succeeded")
	}
	logged := map[string]bool{}
	for _, e := range trail.Links() {
		logged[e.Detail] = e.Allowed
	}
	if allowed, ok := logged["[r3] frobnicate the widget (parse error)"]; !ok || allowed {
		t.Fatalf("parse error logged = %v, allowed = %v; want logged, not allowed", ok, allowed)
	}
	if allowed, ok := logged["[r3] no access-list EDGE 99 failed: console: r3: no ACL entry EDGE seq 99"]; !ok || !allowed {
		t.Fatalf("failed execution logged = %v, allowed = %v; want logged, allowed", ok, allowed)
	}
	if err := trail.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPresentationSliceHidesDevices(t *testing.T) {
	prod := prodNet()
	snap := dataplane.Compute(prod)
	slice := ComputeSlice(prod, snap, SliceTaskDriven, "h1", "h2", nil)
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prod,
		Spec: allowAllSpec(), Slice: slice})
	if err != nil {
		t.Fatal(err)
	}
	// Path devices are visible.
	for _, dev := range []string{"h1", "r1", "r2", "r3", "h2"} {
		if !tw.Visible(dev) {
			t.Errorf("%s should be visible", dev)
		}
	}
	// The stub router and sensitive host are not.
	for _, dev := range []string{"r4", "h3"} {
		if tw.Visible(dev) {
			t.Errorf("%s should be hidden", dev)
		}
		if _, err := tw.OpenConsole(dev); err == nil {
			t.Errorf("console on hidden %s should fail", dev)
		}
	}
	// But the hidden devices still exist in the emulation layer, so the
	// dataplane behaves faithfully.
	if tw.Network().Devices["r4"] == nil {
		t.Fatal("emulation layer must contain hidden devices")
	}
}

func TestSliceStrategies(t *testing.T) {
	prod := prodNet()
	snap := dataplane.Compute(prod)

	all := ComputeSlice(prod, snap, SliceAll, "h1", "h2", nil)
	if len(all) != len(prod.Devices) {
		t.Fatalf("All slice = %d devices, want %d", len(all), len(prod.Devices))
	}

	nb := ComputeSlice(prod, snap, SliceNeighbors, "h1", "h2", nil)
	// h1, h2 and their gateways r1, r3 — but not the middle router r2.
	for _, dev := range []string{"h1", "h2", "r1", "r3"} {
		if !nb[dev] {
			t.Errorf("Neighbor slice missing %s: %v", dev, nb)
		}
	}
	if nb["r2"] || nb["r4"] {
		t.Errorf("Neighbor slice too wide: %v", nb)
	}

	task := ComputeSlice(prod, snap, SliceTaskDriven, "h1", "h2", nil)
	for _, dev := range []string{"h1", "r1", "r2", "r3", "h2"} {
		if !task[dev] {
			t.Errorf("task slice missing %s: %v", dev, task)
		}
	}
	if task["r4"] || task["h3"] {
		t.Errorf("task slice includes irrelevant devices: %v", task)
	}

	// Suspects are always included.
	withSuspect := ComputeSlice(prod, snap, SliceTaskDriven, "h1", "h2", []string{"r4"})
	if !withSuspect["r4"] {
		t.Error("suspect not included")
	}
}

func TestChangesDiffBaseline(t *testing.T) {
	tw, _ := New(Config{Ticket: "T1", Technician: "alice", Production: prodNet(), Spec: allowAllSpec()})
	if got := tw.Changes(); len(got) != 0 {
		t.Fatalf("fresh twin has changes: %v", got)
	}
	sess, _ := tw.OpenConsole("r2")
	if _, err := sess.Exec("access-list NEW 10 deny tcp any host 10.2.0.10 eq 80"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("interface Gi0/2 shutdown"); err != nil {
		t.Fatal(err)
	}
	changes := tw.Changes()
	if len(changes) != 2 {
		t.Fatalf("changes = %v", changes)
	}
	for _, c := range changes {
		if c.Device != "r2" {
			t.Errorf("change on wrong device: %v", c)
		}
	}
}

// TestReenteredRouteIsOneRoute: entering a route the device already holds
// changes nothing, as on IOS, and withdrawing it then diffs to one removal
// that, pushed onto production, leaves no copy. A re-entry used to append a
// duplicate the diff could not see: it became an add of a route production
// already held, and a later withdrawal left a copy behind.
func TestReenteredRouteIsOneRoute(t *testing.T) {
	prod := prodNet()
	route := netmodel.StaticRoute{Prefix: netip.MustParsePrefix("0.0.0.0/0"), NextHop: netip.MustParseAddr("10.0.12.2")}
	prod.Devices["r1"].StaticRoutes = []netmodel.StaticRoute{route}
	tw, _ := New(Config{Ticket: "T1", Technician: "alice", Production: prod, Spec: allowAllSpec()})
	sess, _ := tw.OpenConsole("r1")
	if _, err := sess.Exec("ip route 0.0.0.0 0.0.0.0 10.0.12.2"); err != nil {
		t.Fatal(err)
	}
	if got := tw.Changes(); len(got) != 0 {
		t.Fatalf("re-entering a held route changes %v", got)
	}
	if _, err := sess.Exec("no ip route 0.0.0.0 0.0.0.0 10.0.12.2"); err != nil {
		t.Fatal(err)
	}
	changes := tw.Changes()
	if len(changes) != 1 || changes[0].Op != config.OpRemoveStaticRoute {
		t.Fatalf("withdrawing the route diffs to %v, want one remove-static-route", changes)
	}
	if err := config.ApplyChanges(prod, changes); err != nil {
		t.Fatal(err)
	}
	if got := prod.Devices["r1"].StaticRoutes; slices.Contains(got, route) {
		t.Fatalf("production keeps %v after the withdrawal: %v", route, got)
	}
}

func TestTwinEndToEndDebugging(t *testing.T) {
	// Inject the paper's running example: an ACL on r2 denies h1->h2 web
	// traffic. The technician diagnoses with ping, inspects the ACL,
	// removes the bad entry, and the twin confirms the fix.
	prod := prodNet()
	r2 := prod.Devices["r2"]
	acl := r2.ACL("CORE", true)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.TCP,
		Dst: netip.MustParsePrefix("10.2.0.10/32"), DstPort: 80})
	acl.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit})
	r2.Interface("Gi0/0").ACLIn = "CORE"

	snap := dataplane.Compute(prod)
	slice := ComputeSlice(prod, snap, SliceTaskDriven, "h1", "h2", nil)
	spec, err := privilege.Generate(privilege.TemplateInput{
		Ticket: "T9", Technician: "alice", Kind: privilege.TaskACL,
		Scope: keys(slice), Suspects: []string{"r1", "r2", "r3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := New(Config{Ticket: "T9", Technician: "alice", Production: prod, Spec: spec, Slice: slice})
	if err != nil {
		t.Fatal(err)
	}

	h1, _ := tw.OpenConsole("h1")
	out, err := h1.Exec("ping h2 tcp 80")
	if err != nil || !strings.Contains(out, "failed") {
		t.Fatalf("symptom should reproduce in twin: %q %v", out, err)
	}
	r2c, _ := tw.OpenConsole("r2")
	out, err = r2c.Exec("show access-lists CORE")
	if err != nil || !strings.Contains(out, "deny tcp any host 10.2.0.10 eq 80") {
		t.Fatalf("diagnosis output: %q %v", out, err)
	}
	if _, err := r2c.Exec("no access-list CORE 10"); err != nil {
		t.Fatalf("fix rejected: %v", err)
	}
	out, _ = h1.Exec("ping h2 tcp 80")
	if !strings.Contains(out, "success") {
		t.Fatalf("fix should resolve symptom in twin: %q", out)
	}
	changes := tw.Changes()
	if len(changes) != 1 || changes[0].Op != config.OpRemoveACLEntry {
		t.Fatalf("changes = %v", changes)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Spec: allowAllSpec()}); err == nil {
		t.Error("nil production accepted")
	}
	if _, err := New(Config{Production: prodNet()}); err == nil {
		t.Error("nil spec accepted")
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTwinMetrics(t *testing.T) {
	spec := &privilege.Spec{Ticket: "T1", Technician: "alice", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "show.*", Resource: "device:*"},
	}}
	reg := telemetry.NewRegistry()
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prodNet(),
		Spec: spec, Instruments: NewInstruments(reg)})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tw.OpenConsole("r1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("show ip route"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("show interfaces"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("interface Gi0/1 shutdown"); err == nil {
		t.Fatal("config command should be denied")
	}
	if _, err := sess.Exec("not a command"); err == nil {
		t.Fatal("unparseable command should fail")
	}

	if got := reg.CounterValue("heimdall_monitor_commands_total"); got != 4 {
		t.Errorf("commands_total = %v, want 4", got)
	}
	if got := reg.CounterValue("heimdall_monitor_decisions_total",
		telemetry.L("decision", "allow"), telemetry.L("class", "show")); got != 2 {
		t.Errorf("allow show decisions = %v, want 2", got)
	}
	if got := reg.CounterValue("heimdall_monitor_decisions_total",
		telemetry.L("decision", "deny"), telemetry.L("class", "config")); got != 1 {
		t.Errorf("deny config decisions = %v, want 1", got)
	}
	if got := reg.CounterValue("heimdall_monitor_decisions_total",
		telemetry.L("decision", "deny"), telemetry.L("class", "parse-error")); got != 1 {
		t.Errorf("deny parse-error decisions = %v, want 1", got)
	}
	// Mediation latency is observed for every checked command (allow and
	// deny); exec latency only for allowed ones.
	if got := reg.HistogramCount("heimdall_monitor_mediation_seconds"); got != 3 {
		t.Errorf("mediation_seconds count = %v, want 3", got)
	}
	if got := reg.HistogramCount("heimdall_monitor_exec_seconds"); got != 2 {
		t.Errorf("exec_seconds count = %v, want 2", got)
	}
	// Console dispatch counts the allowed commands by action.
	if got := reg.CounterValue("heimdall_console_dispatch_total",
		telemetry.L("action", "show.ip.route"), telemetry.L("write", "read")); got != 1 {
		t.Errorf("console dispatch show.ip.route = %v, want 1", got)
	}

	// Changes: one diff per twin state, over the devices written to. The
	// denied write above recorded nothing; grant it and write once.
	changes := func(memo string) float64 {
		return reg.CounterValue("heimdall_twin_changes_total", telemetry.L("memo", memo))
	}
	tw.Changes()
	spec.Rules = append(spec.Rules, privilege.Rule{Effect: privilege.AllowEffect, Action: "config.*", Resource: "device:r1"})
	if _, err := sess.Exec("interface Gi0/1 shutdown"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tw.Changes()
	}
	if hit, miss := changes("hit"), changes("miss"); hit != 3 || miss != 1 {
		t.Errorf("twin_changes_total = %v hits, %v misses; want 3, 1", hit, miss)
	}
	if got := reg.CounterValue("heimdall_twin_devices_diffed_total"); got != 1 {
		t.Errorf("twin_devices_diffed_total = %v, want 1", got)
	}
}

// TestTwinNoAliasing follows the CloneCOW aliasing-test pattern for the
// networks an open leaves behind: production, the twin's baseline and its
// emulation layer. An open copies no configuration — the twin shares every
// device's interfaces with production until a write is dispatched on it —
// and the isolation that sharing must not cost is checked by behaviour: a
// write on any of the three reaches neither of the other two, and secrets
// exist only in production. The twin's baseline and emulation layer share
// every device pointer until a write is dispatched on it (no device is
// copied twice on open), and the written device only from then on.
func TestTwinNoAliasing(t *testing.T) {
	prod := prodNet()
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prod, Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	// shares reports whether two networks hold name's interfaces in common.
	shares := func(na, nb *netmodel.Network, name string) bool {
		t.Helper()
		da, db := na.Devices[name], nb.Devices[name]
		if da == nil || db == nil {
			t.Fatalf("%s missing", name)
		}
		for ifName, itf := range da.Interfaces {
			if itf != db.Interfaces[ifName] {
				return false
			}
		}
		return true
	}
	for _, name := range prod.DeviceNames() {
		if !shares(prod, tw.Network(), name) {
			t.Fatalf("device %s copied on open", name)
		}
		if tw.Baseline().Devices[name] != tw.Network().Devices[name] {
			t.Fatalf("device %s copied twice on open", name)
		}
	}
	nets := map[string]*netmodel.Network{"production": prod, "baseline": tw.Baseline(), "emulation": tw.Network()}
	for name, n := range nets {
		want := "<redacted>"
		if name == "production" {
			want = "prod-secret"
		}
		if got := n.Devices["r1"].Secrets["enable"]; got != want {
			t.Fatalf("%s enable secret = %q, want %q", name, got, want)
		}
	}
	prodWas, baseWas, emulWas := printNet(prod), printNet(tw.Baseline()), printNet(tw.Network())

	// A twin write reaches only the emulation layer.
	sess, err := tw.OpenConsole("r2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("interface Gi0/1 shutdown"); err != nil {
		t.Fatal(err)
	}
	if !tw.Network().Devices["r2"].Interface("Gi0/1").Shutdown {
		t.Fatal("write did not reach the emulation layer")
	}
	base := tw.Baseline()
	if !maps.Equal(printNet(prod), prodWas) || !maps.Equal(printNet(base), baseWas) {
		t.Fatal("twin write leaked into production or the baseline")
	}
	if shares(base, tw.Network(), "r2") || shares(prod, tw.Network(), "r2") {
		t.Fatal("the written r2 still shares an interface with the baseline or production")
	}
	for _, name := range prod.DeviceNames() {
		if name != "r2" && base.Devices[name] != tw.Network().Devices[name] {
			t.Fatalf("device %s copied though nothing wrote it", name)
		}
	}

	// A production write — as every production writer makes it, replacing
	// the devices it writes — reaches neither the emulation layer nor the
	// baseline.
	shut := func(dev, itf string) config.Change {
		down := prod.Devices[dev].Interface(itf).Clone()
		down.Shutdown = true
		return config.Change{Device: dev, Op: config.OpSetInterface, Interface: down}
	}
	if err := config.ApplyChanges(prod, []config.Change{shut("r1", "Gi0/1"), shut("r2", "Gi0/2")}); err != nil {
		t.Fatal(err)
	}
	emulWas["r2"] = config.Print(tw.Network().Devices["r2"])
	if !maps.Equal(printNet(tw.Network()), emulWas) || !maps.Equal(printNet(tw.Baseline()), baseWas) {
		t.Fatal("production write leaked into the twin")
	}
	for _, name := range []string{"r3", "h1"} {
		if !shares(prod, tw.Network(), name) {
			t.Fatalf("device %s no longer shared though nobody wrote it", name)
		}
	}
}

// TestTwinSeededSnapshot: a twin handed production's snapshot derives its
// first snapshot from it, and that snapshot describes the emulation layer
// exactly as a from-scratch Compute does — before and after a write.
func TestTwinSeededSnapshot(t *testing.T) {
	prod := prodNet()
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prod,
		Snapshot: dataplane.Compute(prod), Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		got, want := tw.Snapshot(), dataplane.Compute(tw.Network())
		for _, dev := range prod.DeviceNames() {
			if g, w := got.FormatRIB(dev), want.FormatRIB(dev); g != w {
				t.Fatalf("%s: %s RIB diverged:\nseeded:\n%s\nfresh:\n%s", step, dev, g, w)
			}
		}
		g, _ := got.Reach("h1", "h2", netmodel.ICMP, 0)
		w, _ := want.Reach("h1", "h2", netmodel.ICMP, 0)
		if g.String() != w.String() {
			t.Fatalf("%s: h1 -> h2 diverged: seeded %v fresh %v", step, g, w)
		}
	}
	check("opened")
	sess, err := tw.OpenConsole("r2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("interface Gi0/1 shutdown"); err != nil {
		t.Fatal(err)
	}
	check("after shutdown")
}

// A ping, TCP ping or traceroute to an IPv6 literal is an ordinary command
// with an ordinary answer: the IPv4-only dataplane has no route, the monitor
// audits it like any other diag line, and the session carries on. (The
// route lookup used to panic on the address family.)
func TestIPv6TargetIsNoRoute(t *testing.T) {
	spec := &privilege.Spec{Ticket: "T1", Technician: "alice", Rules: []privilege.Rule{
		{Effect: privilege.AllowEffect, Action: "show.*", Resource: "device:*"},
		{Effect: privilege.AllowEffect, Action: "diag.*", Resource: "device:*"},
	}}
	trail := audit.NewTrail([]byte("k"))
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Production: prodNet(), Spec: spec, Trail: trail})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tw.OpenConsole("h1")
	if err != nil {
		t.Fatal(err)
	}
	for line, want := range map[string]string{
		"ping ::1":                "..... failed (no-route at h1) icmp 10.1.0.10 -> ::1",
		"ping 2001:db8::7 tcp 80": "..... failed (no-route at h1) tcp 10.1.0.10:40000 -> 2001:db8::7:80",
		"traceroute ::1":          " 1  h1\nresult: no-route",
		// 4-in-6 is the IPv4 destination it wraps.
		"ping ::ffff:10.2.0.10": "!!!!! success: icmp 10.1.0.10 -> 10.2.0.10",
	} {
		before := trail.Len()
		out, err := sess.Exec(line)
		if err != nil || out != want {
			t.Errorf("%q = %q, %v; want %q", line, out, err, want)
		}
		// Exactly the two entries of an allowed command that succeeded:
		// the command and its allow decision, no failure record.
		got := trail.Links()[before:]
		if len(got) != 2 ||
			got[0].Kind != audit.KindCommand || got[0].Detail != "[h1] "+line || !got[0].Allowed ||
			got[1].Kind != audit.KindDecision || !got[1].Allowed || !strings.HasPrefix(got[1].Detail, "allow diag.") {
			t.Errorf("%q audited as %+v", line, got)
		}
	}
	if out, err := sess.Exec("ping h2"); err != nil || !strings.HasPrefix(out, "!!!!! success") {
		t.Errorf("session after IPv6 targets: ping h2 = %q, %v", out, err)
	}
	if err := trail.Verify(); err != nil {
		t.Errorf("trail: %v", err)
	}
}
