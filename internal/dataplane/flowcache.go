package dataplane

import (
	"sync"

	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// flowKey identifies one host-to-host flow for memoization: the Reach
// arguments. Two flows with the same hosts but different protocol or
// destination port are distinct keys (an ACL may treat them differently).
type flowKey struct {
	src     string
	dst     string
	proto   netmodel.Protocol
	dstPort uint16
}

// flowResult is one memoized Reach outcome, held by value. The trace is
// shared between every caller that asks for the same flow, which is safe
// because traces are never mutated after construction.
type flowResult struct {
	tr  *Trace
	err error
}

// flowCache memoizes Reach results for the lifetime of one Snapshot.
// Snapshots are immutable, so a trace computed once is valid forever. Every
// snapshot starts with an empty one; a derived snapshot may also read and
// fill its parent's (Snapshot.carried), but a flowCache never points at
// another, so a chain of derivations keeps two generations alive, not all.
// The cache is safe for concurrent use — the attack-surface sweep calls
// Reach from many goroutines at once, and concurrent reviews write back
// into one production snapshot's cache. A map under a read-write lock costs
// one hash per operation, a sync.Map a hash-trie walk on a boxed key.
type flowCache struct {
	mu sync.RWMutex
	m  map[flowKey]flowResult
	// hitCtr/missCtr count lookups served and traced on the wired Meter
	// (no-ops unless a registry was passed via Options.Meter); carriedCtr
	// counts the hits that were served from the parent's cache.
	hitCtr     telemetry.Counter
	missCtr    telemetry.Counter
	carriedCtr telemetry.Counter
}

func newFlowCache(m telemetry.Meter) *flowCache {
	if m == nil {
		m = telemetry.Nop()
	}
	return &flowCache{
		hitCtr:     m.Counter("heimdall_dataplane_flowcache_hits_total"),
		missCtr:    m.Counter("heimdall_dataplane_flowcache_misses_total"),
		carriedCtr: m.Counter("heimdall_dataplane_flowcache_carried_total"),
	}
}

// child returns an empty cache that counts on c's counters: a derived
// snapshot's, which looks nothing up.
func (c *flowCache) child() *flowCache {
	return &flowCache{hitCtr: c.hitCtr, missCtr: c.missCtr, carriedCtr: c.carriedCtr}
}

// load returns the memoized result for the key, if any.
func (c *flowCache) load(k flowKey) (flowResult, bool) {
	c.mu.RLock()
	r, ok := c.m[k]
	c.mu.RUnlock()
	return r, ok
}

// loadOrStore memoizes r unless the key holds a result already, and returns
// the one held and whether it was.
func (c *flowCache) loadOrStore(k flowKey, r flowResult) (flowResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if held, ok := c.m[k]; ok {
		return held, true
	}
	if c.m == nil {
		c.m = make(map[flowKey]flowResult)
	}
	c.m[k] = r
	return r, false
}

// store memoizes a freshly computed result and returns the canonical
// entry: when two goroutines race on the same key, the first stored copy
// wins and both callers observe it (results are deterministic, so either
// copy is identical in content).
//
// Only the winner counts a miss; the loser was served the stored entry and
// counts a hit, so misses is exactly the number of distinct flows memoized
// however the callers interleave.
func (c *flowCache) store(k flowKey, r flowResult) flowResult {
	r, loaded := c.loadOrStore(k, r)
	if loaded {
		c.hitCtr.Inc()
	} else {
		c.missCtr.Inc()
	}
	return r
}
