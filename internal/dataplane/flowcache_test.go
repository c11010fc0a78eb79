package dataplane

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// blockWebNet is threeRouterNet with tcp/80 to h2 denied at r3, so the
// same host pair yields different dispositions per (proto, dstPort).
func blockWebNet() *netmodel.Network {
	n := threeRouterNet()
	r3 := n.Device("r3")
	acl := r3.ACL("BLOCK-WEB", true)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.TCP,
		Dst: pfx("10.2.0.10/32"), DstPort: 80})
	acl.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit, Proto: netmodel.AnyProto})
	r3.Interface("Gi0/0").ACLIn = "BLOCK-WEB"
	r3.Interface("Gi0/2").ACLIn = "BLOCK-WEB"
	return n
}

func TestFlowCacheKeyDistinguishesProtoAndPort(t *testing.T) {
	s := Compute(blockWebNet())

	web, err := s.Reach("h1", "h2", netmodel.TCP, 80)
	if err != nil {
		t.Fatal(err)
	}
	ssh, _ := s.Reach("h1", "h2", netmodel.TCP, 22)
	icmp, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if web.Delivered() {
		t.Fatalf("tcp/80 should be dropped: %s", web)
	}
	if !ssh.Delivered() || !icmp.Delivered() {
		t.Fatalf("tcp/22 and icmp should pass: %s / %s", ssh, icmp)
	}
	if hits, misses := s.FlowCacheStats(); hits != 0 || misses != 3 {
		t.Fatalf("three distinct flows should all miss: hits=%d misses=%d", hits, misses)
	}

	// Re-asking for each flow serves the memoized trace: same pointer,
	// no new miss.
	web2, _ := s.Reach("h1", "h2", netmodel.TCP, 80)
	ssh2, _ := s.Reach("h1", "h2", netmodel.TCP, 22)
	if web2 != web || ssh2 != ssh {
		t.Fatal("repeat Reach should return the memoized trace")
	}
	if hits, misses := s.FlowCacheStats(); hits != 2 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", hits, misses)
	}
}

func TestFlowCacheCachesErrors(t *testing.T) {
	s := Compute(threeRouterNet())
	for i := 0; i < 2; i++ {
		if _, err := s.Reach("nope", "h2", netmodel.ICMP, 0); err == nil {
			t.Fatal("unknown host should error")
		}
	}
	if hits, misses := s.FlowCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("errors should be memoized too: hits=%d misses=%d", hits, misses)
	}
}

func TestFlowCacheIsPerSnapshot(t *testing.T) {
	n := threeRouterNet()
	s1 := Compute(n)
	tr1, _ := s1.Reach("h1", "h2", netmodel.ICMP, 0)
	if !tr1.Delivered() {
		t.Fatalf("baseline should deliver: %s", tr1)
	}

	// Break the only remaining path and recompute: the fresh snapshot
	// must trace from scratch, not serve the stale delivered trace.
	n.Device("r1").Interface("Gi0/1").Shutdown = true
	n.Device("r1").Interface("Gi0/2").Shutdown = true
	s2 := Compute(n)
	if hits, misses := s2.FlowCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("recomputed snapshot should start empty: hits=%d misses=%d", hits, misses)
	}
	tr2, _ := s2.Reach("h1", "h2", netmodel.ICMP, 0)
	if tr2.Delivered() {
		t.Fatalf("broken network served a stale delivered trace: %s", tr2)
	}
	// The old snapshot still answers from its own (valid-for-it) cache.
	tr1b, _ := s1.Reach("h1", "h2", netmodel.ICMP, 0)
	if tr1b != tr1 {
		t.Fatal("old snapshot should keep its own memoized trace")
	}
}

func TestFlowCacheConcurrentReach(t *testing.T) {
	s := Compute(blockWebNet())
	type probe struct {
		src, dst  string
		proto     netmodel.Protocol
		port      uint16
		delivered bool
	}
	probes := []probe{
		{"h1", "h2", netmodel.TCP, 80, false},
		{"h1", "h2", netmodel.TCP, 22, true},
		{"h1", "h2", netmodel.ICMP, 0, true},
		{"h2", "h1", netmodel.ICMP, 0, true},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := probes[i%len(probes)]
				tr, err := s.Reach(p.src, p.dst, p.proto, p.port)
				if err != nil {
					errs <- err.Error()
					return
				}
				if tr.Delivered() != p.delivered {
					errs <- "wrong disposition for " + tr.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	hits, misses := s.FlowCacheStats()
	if misses != uint64(len(probes)) {
		t.Errorf("misses = %d, want %d (one per distinct flow)", misses, len(probes))
	}
	if hits+misses != 8*50 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 8*50)
	}
}

func TestFlowCacheMeterExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := blockWebNet()
	s := ComputeWithOptions(n, Options{Meter: reg})
	s.Reach("h1", "h2", netmodel.ICMP, 0)
	s.Reach("h1", "h2", netmodel.ICMP, 0)
	// h1 -> h2 takes r1 - r3, so a child that changed r2 carries the trace:
	// one more hit, and one carried.
	child := s.Derive(aclOn(n, "r2"), ChangeSet{{Device: "r2", Kind: ChangeACL}})
	child.Reach("h1", "h2", netmodel.ICMP, 0)
	for name, want := range map[string]float64{
		"heimdall_dataplane_flowcache_misses_total":  1,
		"heimdall_dataplane_flowcache_hits_total":    2,
		"heimdall_dataplane_flowcache_carried_total": 1,
	} {
		if v := reg.CounterValue(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
		if dump := reg.Dump(); !strings.Contains(dump, name) {
			t.Errorf("exposition missing %s:\n%s", name, dump)
		}
	}
	if hits, misses := child.FlowCacheStats(); hits != 1 || misses != 0 {
		t.Errorf("a carried lookup is a hit: hits=%d misses=%d", hits, misses)
	}
}

// aclOn returns n with a fresh permit-all ACL defined on one cloned device:
// an ACL-class change that moves no trace.
func aclOn(n *netmodel.Network, dev string) *netmodel.Network {
	m := n.CloneCOW(dev)
	m.Devices[dev].ACL("NOOP", true).InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit, Proto: netmodel.AnyProto})
	return m
}

// TestFlowCacheWriteBack: what a child has to trace itself it offers to the
// parent when the trace avoids every changed device — which is how a held
// snapshot nobody calls Reach on gets warm — and only then.
func TestFlowCacheWriteBack(t *testing.T) {
	n := threeRouterNet()
	parent := Compute(n)
	key := flowKey{src: "h1", dst: "h2", proto: netmodel.ICMP}

	// r1 is on the path: the trace stays with the child.
	dirty := parent.Derive(aclOn(n, "r1"), ChangeSet{{Device: "r1", Kind: ChangeACL}})
	dirty.Reach("h1", "h2", netmodel.ICMP, 0)
	if _, ok := parent.flows.m.Load(key); ok {
		t.Fatal("a trace through the changed device was written back to the parent")
	}

	// r2 is not: the trace goes back, and a sibling finds it there.
	clean := parent.Derive(aclOn(n, "r2"), ChangeSet{{Device: "r2", Kind: ChangeACL}})
	tr, _ := clean.Reach("h1", "h2", netmodel.ICMP, 0)
	if _, misses := clean.FlowCacheStats(); misses != 1 {
		t.Fatalf("cold parent: child should have traced once, misses=%d", misses)
	}
	sibling := parent.Derive(aclOn(n, "r2"), ChangeSet{{Device: "r2", Kind: ChangeACL}})
	if got, _ := sibling.Reach("h1", "h2", netmodel.ICMP, 0); got != tr {
		t.Fatal("sibling did not carry the trace its sibling wrote back")
	}
	if hits, misses := parent.FlowCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("the parent's counters count its own Reach calls: hits=%d misses=%d", hits, misses)
	}
	// Errors have no hops and carry too.
	clean.Reach("nope", "h2", netmodel.ICMP, 0)
	if _, err := sibling.Reach("nope", "h2", netmodel.ICMP, 0); err == nil {
		t.Fatal("unknown host should error")
	}
	if _, misses := sibling.FlowCacheStats(); misses != 0 {
		t.Fatalf("sibling traced %d flows its parent already held", misses)
	}
}

// TestFlowCacheInPlaceParent is the commit pipeline's shape: the network is
// mutated in place and the child derived onto the same *Network, so the
// parent snapshot is stale by the time the child exists. Looking up in its
// cache is still sound — a memoized trace either crosses a changed device
// and is rejected, or avoids them all and is right for both — but nothing
// may be traced on it.
func TestFlowCacheInPlaceParent(t *testing.T) {
	n := threeRouterNet()
	parent := Compute(n)
	old, _ := parent.Reach("h1", "h2", netmodel.ICMP, 0)
	if !old.Delivered() {
		t.Fatalf("baseline should deliver: %s", old)
	}

	// A change off the path, in place: carried by pointer.
	n.Device("r2").ACL("NOOP", true).InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Permit})
	child := parent.Derive(n, ChangeSet{{Device: "r2", Kind: ChangeACL}})
	if got, _ := child.Reach("h1", "h2", netmodel.ICMP, 0); got != old {
		t.Fatal("clean trace not carried across an in-place derive")
	}

	// A change on the path, in place: retraced on the child, and neither
	// ancestor's entry is replaced.
	r1 := n.Device("r1")
	r1.ACL("DENY", true).InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.AnyProto})
	r1.Interface("Gi0/0").ACLIn = "DENY"
	grandchild := child.Derive(n, ChangeSet{{Device: "r1", Kind: ChangeACL}})
	got, _ := grandchild.Reach("h1", "h2", netmodel.ICMP, 0)
	if got.Delivered() {
		t.Fatalf("served a stale delivered trace: %s", got)
	}
	if want, _ := Compute(n).Reach("h1", "h2", netmodel.ICMP, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-place derive diverged from Compute: %s, want %s", got, want)
	}
	for _, s := range []*Snapshot{parent, child} {
		if v, _ := s.flows.m.Load(flowKey{src: "h1", dst: "h2", proto: netmodel.ICMP}); v.(*flowResult).tr != old {
			t.Fatal("an ancestor's memoized trace was replaced")
		}
	}
}

// TestDeriveChainKeepsTwoGenerations: a snapshot holds its parent's flow
// cache, never its parent, and a flow cache holds no other — so the head of
// a 200-step chain keeps two generations of memoized traces reachable, not
// two hundred. Production at version N must not pin versions 1…N-1.
func TestDeriveChainKeepsTwoGenerations(t *testing.T) {
	const steps = 200
	var live atomic.Int64
	track := func(s *Snapshot) *Snapshot {
		live.Add(1)
		runtime.SetFinalizer(s.flows, func(*flowCache) { live.Add(-1) })
		return s
	}
	n := threeRouterNet()
	head := track(Compute(n))
	for i := 0; i < steps; i++ {
		head.Reach("h1", "h2", netmodel.ICMP, 0)
		head.Reach("h2", "h1", netmodel.TCP, uint16(i))
		n = aclOn(n, []string{"r1", "r2", "r3"}[i%3])
		head = track(head.Derive(n, ChangeSet{{Device: []string{"r1", "r2", "r3"}[i%3], Kind: ChangeACL}}))
	}
	for i := 0; i < 20 && live.Load() > 2; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := live.Load(); got > 2 {
		t.Fatalf("%d of %d flow caches still reachable from the head of the chain, want at most 2", got, steps+1)
	}
	runtime.KeepAlive(head)
}
