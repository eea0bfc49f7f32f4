package scenario

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// StoreCache promotes the per-call group memos — each workload group's
// activity source and, at event resolution, each replicated group's
// timeline memo — to server lifetime: a drowsyd process keeps one
// StoreCache, passes it to every Run/RunSweep via Options.Stores, and
// all requests that materialize the same workload structure read the
// same immutable memos. Within one call the memos are already shared
// across every policy cell and sweep point; the cache extends exactly
// that sharing across requests, which is safe for the same reason —
// trace.Memo is an append-only concurrent memo whose reads are
// bit-identical to direct evaluation, so two concurrent requests racing
// on one memo can only ever agree.
//
// It holds no member timelines. Options.stores builds those per call,
// so they die with the job: cached, they would keep every
// non-replicated member's bursts alive across jobs in a cache that
// never evicts.
//
// Entries are keyed by the scenario's workload structure: family name,
// start, horizon, resolution and every scalar field of every workload
// group. Tuning, network and sweep knobs are deliberately absent — none
// of them reaches a store (variant jitter and phase shifts are overlaid
// per read by each member's trace.Source, never written into the base
// memo), so a grace sweep and a wake-loss sweep of the same family
// share one entry.
// The key cannot see a group's generator function; callers must only
// pass scenarios whose groups are a pure function of the key, which
// holds for every registry family (Build is deterministic in Params).
type StoreCache struct {
	mu         sync.Mutex
	m          map[string]runStores
	promotions atomic.Uint64
}

// NewStoreCache returns an empty server-lifetime store cache.
func NewStoreCache() *StoreCache {
	return &StoreCache{m: make(map[string]runStores)}
}

// Len reports the number of distinct workload structures cached —
// surfaced by drowsyd's stats endpoint as store_entries.
func (c *StoreCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// storesFor returns the cached stores for sc's workload structure,
// building and memoizing them on first use. The mutex only guards the
// map; the stores themselves are concurrent by construction.
func (c *StoreCache) storesFor(sc Scenario) runStores {
	key := structuralKey(sc)
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.m[key]; ok {
		c.promotions.Add(1)
		return st
	}
	st := sc.sharedStores()
	c.m[key] = st
	return st
}

// Promotions returns how many runs were served an already-cached store
// entry (cross-request trace/timeline sharing events) — telemetry for
// drowsyd's /metrics.
func (c *StoreCache) Promotions() uint64 {
	if c == nil {
		return 0
	}
	return c.promotions.Load()
}

// structuralKey identifies everything sharedStores reads — whether
// timeline memos exist (resolution) and each group's structural
// scalars — plus the replay span (start + horizon), which keeps runs
// of different spans in separate entries. Field names are spelled into
// the key so two groups that happen to collide numerically across
// different fields cannot alias.
func structuralKey(sc Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|start=%d|horizon=%d|res=%d|", sc.Name, sc.Start, sc.HorizonHours, sc.Resolution)
	for _, g := range sc.Groups {
		fmt.Fprintf(&b, "g{name=%s,count=%d,kind=%d,mem=%d,vcpu=%d,repl=%t,shift=%d,seed=%d,timer=%t,arrive=%d,life=%d,pin=%d}",
			g.Name, g.Count, int(g.Kind), g.MemGB, g.VCPUs, g.Replicated,
			g.ShiftStepHours, g.Seed, g.TimerDriven, g.ArriveEvery, g.LifetimeHours, g.StartHost)
	}
	return b.String()
}
