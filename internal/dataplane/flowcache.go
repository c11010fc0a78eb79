package dataplane

import (
	"sync"
	"sync/atomic"

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

// flowResult is one memoized Reach outcome. The trace is shared between
// every caller that asks for the same flow, which is safe because traces
// are never mutated after construction.
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
// into one production snapshot's cache.
type flowCache struct {
	m      sync.Map // flowKey -> *flowResult
	hits   atomic.Uint64
	misses atomic.Uint64
	// hitCtr/missCtr mirror the atomic counters onto the wired Meter
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

// lookup returns the memoized result for the key, if any.
func (c *flowCache) lookup(k flowKey) (*flowResult, bool) {
	v, ok := c.m.Load(k)
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	c.hitCtr.Inc()
	return v.(*flowResult), true
}

// store memoizes a freshly computed result and returns the canonical
// entry: when two goroutines race on the same key, the first stored copy
// wins and both callers observe it (results are deterministic, so either
// copy is identical in content).
//
// Only the winner counts a miss; the loser was served the stored entry and
// counts a hit, so misses is exactly the number of distinct flows memoized
// however the callers interleave.
func (c *flowCache) store(k flowKey, r *flowResult) *flowResult {
	v, loaded := c.m.LoadOrStore(k, r)
	if loaded {
		c.hits.Add(1)
		c.hitCtr.Inc()
	} else {
		c.misses.Add(1)
		c.missCtr.Inc()
	}
	return v.(*flowResult)
}

// stats returns the cache's hit and miss counts.
func (c *flowCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// FlowCacheStats returns how many Reach calls this snapshot served from
// its memoized flow cache (hits) versus traced from scratch (misses).
func (s *Snapshot) FlowCacheStats() (hits, misses uint64) {
	return s.flows.stats()
}
