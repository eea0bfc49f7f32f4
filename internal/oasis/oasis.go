// Package oasis reconstructs the Oasis consolidation support that the
// paper compares against (Zhi, Bila & de Lara, EuroSys 2016; §VII of the
// Drowsy-DC paper). Oasis pursues energy proportionality with hybrid
// server consolidation: it detects idle VMs from hypervisor-visible
// signals (the paper cites VM page-dirtying rate) and pairs VMs so that
// hosts can power down.
//
// Drowsy-DC's related-work section pins down the property this package
// must reproduce: the comparator "is limited to checking pairs of VMs"
// with O(n²) complexity, against Drowsy-DC's O(n) IP-based pass. The
// reconstruction therefore scores every VM pair by the overlap of their
// recently observed idle hours (a trailing window — no calendar model)
// and greedily colocates the best-matching pairs. Everything the
// original gets from page-dirtying-rate introspection is represented by
// the observed activity trace, which is the same signal source the rest
// of this repository uses.
//
// # Fleet-scale execution
//
// The pair structure is O(n²) by design — that is the claim §VII
// measures — but a literal score-materialize-and-sort round made the
// comparator unusable at fleet scale (~25 s per policy at 500 VMs over
// a year). Two exact optimizations remove that cost without changing a
// single decision:
//
//  1. an incremental idle index: one ring-buffer idle bitset per VM,
//     advanced O(1) per VM per simulated hour (RecordHour, the
//     cluster.HourRecorder hook) or by a lazy delta keyed on the
//     entry's last-built hour, instead of re-walking the full trailing
//     window for every VM on every rebalance;
//  2. a bound-pruned pair search: VMs are revealed in decreasing order
//     of window idle popcount, and min(pop(a), pop(b))/window — an
//     exact upper bound on the pair's overlap — prunes every pair that
//     cannot beat the sticky-margin acceptance floor or whose
//     endpoints the greedy matching already consumed. Scores are
//     integer counts in [0, window], so a counting sort over score
//     levels replaces the comparison sort while reproducing its exact
//     (score desc, a asc, b asc) order.
//
// Options.Exhaustive selects the original full-scan selection; the
// equivalence suite asserts the two modes produce bit-identical
// migrations on every registered scenario family. PairEvaluations keeps
// the §VII structural metric observable by reporting scored plus
// bound-skipped pairs — the pruned pairs were considered, their scores
// just never needed computing.
package oasis

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
)

// Options tunes the Oasis reconstruction.
type Options struct {
	// Window is the trailing observation window, in hours, over which
	// pairwise idle overlap is computed. Zero selects one week.
	Window int
	// IdleThreshold is the activity level (the page-dirtying-rate
	// proxy) below which an hour counts as idle. Zero selects 0.01.
	IdleThreshold float64
	// StickyMargin avoids churn: a VM only moves when the new grouping
	// improves its pair score by at least this much. Zero selects 0.05.
	StickyMargin float64
	// Exhaustive selects the reference selection: score every pair,
	// sort, then match greedily. It exists for the old-vs-new
	// equivalence suite and produces bit-identical decisions to the
	// default bound-pruned search, at the original O(n² log n) cost.
	Exhaustive bool
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 24 * 7
	}
	if o.IdleThreshold == 0 {
		o.IdleThreshold = 0.01
	}
	if o.StickyMargin == 0 {
		o.StickyMargin = 0.05
	}
	return o
}

// Policy is the Oasis-like pairwise consolidation policy.
type Policy struct {
	opts    Options
	scored  uint64 // pair scores actually computed
	skipped uint64 // pairs considered but pruned before scoring
	idx     *idleIndex

	// Reused per-round scratch (one policy instance runs one
	// simulation, on one goroutine).
	entryBuf []*idleEntry
	indexBuf map[*cluster.VM]int
	popVMs   [][]int32
	buckets  [][]uint64
	active   []int32
	used     []bool
}

// New creates an Oasis policy.
func New(opts Options) *Policy { return &Policy{opts: opts.withDefaults()} }

// Name implements cluster.Policy.
func (p *Policy) Name() string { return "oasis" }

// IdlenessBlind implements cluster.IdlenessBlind: Oasis pairs VMs by
// their observed activity, never by the idleness model.
func (p *Policy) IdlenessBlind() {}

// PairEvaluations returns the cumulative number of pairs the policy
// considered — the O(n²) scalability metric of §VII. It is the sum of
// ScoredPairs and PrunedPairs: a bound-pruned pair was considered (it
// is part of the quadratic structure), its score merely proved
// unnecessary.
func (p *Policy) PairEvaluations() uint64 { return p.scored + p.skipped }

// ScoredPairs returns how many pair scores were actually computed.
func (p *Policy) ScoredPairs() uint64 { return p.scored }

// PrunedPairs returns how many considered pairs the popcount bound (or
// a completed greedy matching) skipped without scoring.
func (p *Policy) PrunedPairs() uint64 { return p.skipped }

// idleOverlap scores a VM pair: the fraction of the trailing window in
// which both were idle simultaneously. PlaceNew uses it directly (the
// new VM has no index entry yet and arrivals are rare).
func (p *Policy) idleOverlap(a, b *cluster.VM, hr simtime.Hour) float64 {
	start := hr - simtime.Hour(p.opts.Window)
	if start < 0 {
		start = 0
	}
	n := int(hr - start)
	if n == 0 {
		return 0
	}
	both := 0
	for i := 0; i < n; i++ {
		h := start + simtime.Hour(i)
		if a.Activity(h) < p.opts.IdleThreshold && b.Activity(h) < p.opts.IdleThreshold {
			both++
		}
	}
	p.scored++
	return float64(both) / float64(n)
}

// PlaceNew implements cluster.Policy: the new VM joins the feasible host
// whose resident VMs it overlaps best with (no history yet means every
// host scores 0; first-fit then applies).
func (p *Policy) PlaceNew(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour) (*cluster.Host, error) {
	var best *cluster.Host
	bestScore := -1.0
	for _, h := range c.Hosts() {
		if !h.CanHost(v) {
			continue
		}
		score := 0.0
		for _, resident := range h.VMs() {
			score += p.idleOverlap(v, resident, hr)
		}
		if len(h.VMs()) > 0 {
			score /= float64(len(h.VMs()))
		}
		if score > bestScore {
			bestScore = score
			best = h
		}
	}
	if best == nil {
		return nil, fmt.Errorf("oasis: no host can fit VM %s", v.Name)
	}
	return best, nil
}

// RecordHour implements cluster.HourRecorder: it advances every VM's
// ring-buffer idle bitset by the hour that just played, so index
// maintenance costs O(n) per simulated hour instead of O(n·window) per
// rebalance. Direct callers that skip the hook are covered by the lazy
// delta update in Rebalance. The exhaustive reference mode maintains no
// index at all (it rebuilds its bitsets per round, the seed behaviour).
// Oasis pairs VMs by observed idleness, so it ignores host utilization.
func (p *Policy) RecordHour(c *cluster.Cluster, hr simtime.Hour, _ []float64) {
	if p.opts.Exhaustive {
		return
	}
	ix := p.index()
	for _, v := range c.VMs() {
		ix.advance(v, ix.entry(v), hr+1)
	}
}

// Rebalance implements cluster.Policy: the O(n²) greedy pairing pass.
// All VM pairs are considered by idle overlap; the best disjoint pairs
// are then colocated, each pair (or group, when hosts take more than
// two VMs) going to a host that can take them. The default
// implementation prunes with the popcount bound; Options.Exhaustive
// scores and sorts every pair. Both produce the same decisions.
func (p *Policy) Rebalance(c *cluster.Cluster, hr simtime.Hour) {
	vms := c.VMs()
	if len(vms) < 2 {
		return
	}
	if p.opts.Exhaustive {
		p.rebalanceExhaustive(c, vms, hr)
		return
	}
	p.rebalanceIndexed(c, vms, hr)
}

// ---------------------------------------------------------------------------
// Incremental idle index

// idleIndex holds one ring-buffer idle bitset per VM: bit (h mod
// window) of a VM's ring is set when the VM was idle during hour h, for
// every h in the trailing window. Writing hour h's bit overwrites hour
// h−window's — the hour dropping out of the window — so maintenance is
// O(1) per VM per hour. Ring positions are a bijection of window hours
// shared by all VMs, so popcount(AND) of two rings equals the
// both-idle hour count the exhaustive window walk produces.
type idleIndex struct {
	window  int
	thresh  float64
	words   int
	round   uint64
	entries map[*cluster.VM]*idleEntry
}

// idleEntry is one VM's ring state.
type idleEntry struct {
	bits []uint64
	// pop is the ring's popcount — the VM's idle-hour count over the
	// window, maintained on every bit flip. It is the quantity the
	// pruning bound is built from.
	pop int
	// builtTo marks the covered span: hours [builtTo−window, builtTo)
	// (clipped at 0) are reflected in bits.
	builtTo simtime.Hour
	// seen stamps the last sync round, for pruning departed VMs.
	seen uint64
}

func (p *Policy) index() *idleIndex {
	if p.idx == nil {
		words := (p.opts.Window + 63) / 64
		if words < 0 {
			words = 0
		}
		p.idx = &idleIndex{
			window:  p.opts.Window,
			thresh:  p.opts.IdleThreshold,
			words:   words,
			entries: make(map[*cluster.VM]*idleEntry),
		}
	}
	return p.idx
}

func (ix *idleIndex) entry(v *cluster.VM) *idleEntry {
	e := ix.entries[v]
	if e == nil {
		e = &idleEntry{bits: make([]uint64, ix.words)}
		ix.entries[v] = e
	}
	return e
}

// advance brings an entry's ring up to hour hr (exclusive). The common
// case — already current, or one hour behind — is O(1); a gap wider
// than the window (or a time regression, which only tests produce)
// rebuilds the ring wholesale, which is the old per-round cost paid
// once.
func (ix *idleIndex) advance(v *cluster.VM, e *idleEntry, hr simtime.Hour) {
	if e.builtTo == hr {
		return
	}
	lo := hr - simtime.Hour(ix.window)
	if lo < 0 {
		lo = 0
	}
	from := e.builtTo
	if hr < from || from < lo {
		for i := range e.bits {
			e.bits[i] = 0
		}
		e.pop = 0
		from = lo
	}
	for h := from; h < hr; h++ {
		ix.set(e, h, v.Activity(h) < ix.thresh)
	}
	e.builtTo = hr
}

// set writes hour h's idle bit, keeping the popcount current.
func (ix *idleIndex) set(e *idleEntry, h simtime.Hour, idle bool) {
	pos := int(h) % ix.window
	w, m := pos>>6, uint64(1)<<(pos&63)
	if e.bits[w]&m != 0 {
		if !idle {
			e.bits[w] &^= m
			e.pop--
		}
	} else if idle {
		e.bits[w] |= m
		e.pop++
	}
}

// syncIndex advances every current VM's entry to hr and prunes entries
// of departed VMs (which would otherwise pin the VM and its trace memo
// under churn). It returns entries aligned with vms.
func (p *Policy) syncIndex(vms []*cluster.VM, hr simtime.Hour) []*idleEntry {
	ix := p.index()
	ix.round++
	if cap(p.entryBuf) < len(vms) {
		p.entryBuf = make([]*idleEntry, len(vms))
	}
	out := p.entryBuf[:len(vms)]
	for i, v := range vms {
		e := ix.entry(v)
		e.seen = ix.round
		ix.advance(v, e, hr)
		out[i] = e
	}
	if len(ix.entries) > len(vms) {
		for v, e := range ix.entries {
			if e.seen != ix.round {
				delete(ix.entries, v)
			}
		}
	}
	return out
}

// overlapIndexed scores one pair from the ring bitsets, counting the
// evaluation exactly as the window-walk and bitset paths do.
func (p *Policy) overlapIndexed(ea, eb *idleEntry, win int) float64 {
	if win == 0 {
		return 0
	}
	both := 0
	for w, x := range ea.bits {
		both += bits.OnesCount64(x & eb.bits[w])
	}
	p.scored++
	return float64(both) / float64(win)
}

// andPop is overlapIndexed's integer core, used when the raw both-idle
// count (the score level) is needed.
func andPop(a, b []uint64) int {
	both := 0
	for w, x := range a {
		both += bits.OnesCount64(x & b[w])
	}
	return both
}

// currentScoreIndexed is the VM's best idle overlap with a current host
// mate, read from the ring index.
func (p *Policy) currentScoreIndexed(entries []*idleEntry, indexOf map[*cluster.VM]int, v *cluster.VM, win int) float64 {
	h := v.Host()
	if h == nil {
		return -1
	}
	best := 0.0
	for _, mate := range h.VMs() {
		if mate == v {
			continue
		}
		if s := p.overlapIndexed(entries[indexOf[v]], entries[indexOf[mate]], win); s > best {
			best = s
		}
	}
	return best
}

// rebalanceIndexed is the bound-pruned selection. It reproduces the
// exhaustive pass's exact processing order — score descending, then
// (a, b) ascending — via a counting sort over integer score levels,
// revealing pairs lazily: a pair first exists at level min(pop(a),
// pop(b)), its admissible score bound, so pairs below the sticky-margin
// floor, pairs against already-matched VMs, and everything after the
// matching completes are never scored at all.
func (p *Policy) rebalanceIndexed(c *cluster.Cluster, vms []*cluster.VM, hr simtime.Hour) {
	n := len(vms)
	entries := p.syncIndex(vms, hr)
	start := hr - simtime.Hour(p.opts.Window)
	if start < 0 {
		start = 0
	}
	win := int(hr - start)

	if p.indexBuf == nil {
		p.indexBuf = make(map[*cluster.VM]int, n)
	}
	clear(p.indexBuf)
	indexOf := p.indexBuf
	for i, v := range vms {
		indexOf[v] = i
	}
	if cap(p.used) < n {
		p.used = make([]bool, n)
	}
	used := p.used[:n]
	for i := range used {
		used[i] = false
	}

	// With every VM placed, currentScore is ≥ 0 for both endpoints, so
	// any pair scoring below the sticky margin is unconditionally
	// skipped — the margin becomes a hard pruning floor. An unplaced VM
	// reports −1 and can accept any score, so the floor only engages
	// when the whole population is placed (always true inside dcsim).
	allPlaced := true
	for _, v := range vms {
		if v.Host() == nil {
			allPlaced = false
			break
		}
	}

	maxPop := 0
	for _, e := range entries {
		if e.pop > maxPop {
			maxPop = e.pop
		}
	}
	popVMs := growLevels(&p.popVMs, maxPop+1)
	for i, e := range entries {
		popVMs[e.pop] = append(popVMs[e.pop], int32(i))
	}
	buckets := growLevels(&p.buckets, maxPop+1)
	active := p.active[:0]
	defer func() { p.active = active[:0] }()

	total := uint64(n) * uint64(n-1) / 2
	scoredSel := uint64(0)
	usedCount := 0

	for k := maxPop; k >= 0; k-- {
		score := 0.0
		if win != 0 {
			score = float64(k) / float64(win)
		}
		if allPlaced && score < p.opts.StickyMargin {
			// No pair at or below this level can act: every endpoint's
			// current score is ≥ 0, so the sticky check skips them all.
			break
		}
		// Compact the reveal frontier: pairs against matched VMs are
		// no-ops whenever they would be processed, so they need not be
		// scored — the second pruning source besides the margin floor.
		live := active[:0]
		for _, j := range active {
			if !used[j] {
				live = append(live, j)
			}
		}
		active = live
		// Reveal: VMs whose idle popcount equals this level join the
		// frontier, each scoring against every earlier-revealed live
		// VM. Admissibility (overlap ≤ min pop) puts every pair in the
		// bucket of its exact score, at or below the current level —
		// never in a level already swept.
		for _, i := range popVMs[k] {
			ei := entries[i]
			for _, j := range active {
				both := andPop(ei.bits, entries[j].bits)
				if win != 0 {
					p.scored++
					scoredSel++
				}
				a, b := i, j
				if b < a {
					a, b = b, a
				}
				buckets[both] = append(buckets[both], uint64(a)<<32|uint64(b))
			}
			active = append(active, i)
		}
		// Process this level's pairs in (a, b) order — the exhaustive
		// sort's tiebreak, restored by sorting the packed keys.
		bkt := buckets[k]
		slices.Sort(bkt)
		for _, pk := range bkt {
			a, b := int(pk>>32), int(pk&0xffffffff)
			if used[a] || used[b] {
				continue
			}
			used[a] = true
			used[b] = true
			usedCount += 2
			va, vb := vms[a], vms[b]
			if va.Host() != nil && va.Host() == vb.Host() {
				continue // already together
			}
			if score < p.currentScoreIndexed(entries, indexOf, va, win)+p.opts.StickyMargin &&
				score < p.currentScoreIndexed(entries, indexOf, vb, win)+p.opts.StickyMargin {
				continue
			}
			p.colocate(c, va, vb)
		}
		buckets[k] = bkt[:0]
		if usedCount >= n-1 {
			// At most one VM is unmatched: every remaining pair has a
			// consumed endpoint and cannot act.
			break
		}
	}
	for k := range buckets {
		buckets[k] = buckets[k][:0]
	}
	for k := range popVMs {
		popVMs[k] = popVMs[k][:0]
	}
	if win != 0 {
		p.skipped += total - scoredSel
	}
}

// growLevels sizes a per-level slice table, keeping capacity across
// rounds. Levels are reset by the caller after use.
func growLevels[T any](s *[][]T, n int) [][]T {
	for len(*s) < n {
		*s = append(*s, nil)
	}
	return (*s)[:n]
}

// ---------------------------------------------------------------------------
// Exhaustive reference selection

// idleSets builds one idle bitset per VM over the trailing window
// ending at hr: bit k of vm i's set is on when vms[i] was idle during
// hour start+k. A pair's overlap score is then a popcount of the ANDed
// sets — the same integer count the hour-by-hour walk of idleOverlap
// produces, at 1/64th of the memory traffic.
func (p *Policy) idleSets(vms []*cluster.VM, hr simtime.Hour) (sets [][]uint64, window int) {
	start := hr - simtime.Hour(p.opts.Window)
	if start < 0 {
		start = 0
	}
	window = int(hr - start)
	words := (window + 63) / 64
	sets = make([][]uint64, len(vms))
	for i, v := range vms {
		bs := make([]uint64, words)
		for k := 0; k < window; k++ {
			if v.Activity(start+simtime.Hour(k)) < p.opts.IdleThreshold {
				bs[k>>6] |= 1 << (k & 63)
			}
		}
		sets[i] = bs
	}
	return sets, window
}

// overlapFromSets scores one pair from precomputed idle bitsets,
// counting the evaluation exactly as idleOverlap does.
func (p *Policy) overlapFromSets(sets [][]uint64, window, i, j int) float64 {
	if window == 0 {
		return 0
	}
	both := 0
	for w, x := range sets[i] {
		both += bits.OnesCount64(x & sets[j][w])
	}
	p.scored++
	return float64(both) / float64(window)
}

// rebalanceExhaustive is the reference pass: score all pairs,
// materialize, sort, match greedily.
func (p *Policy) rebalanceExhaustive(c *cluster.Cluster, vms []*cluster.VM, hr simtime.Hour) {
	n := len(vms)
	sets, window := p.idleSets(vms, hr)
	indexOf := make(map[*cluster.VM]int, n)
	for i, v := range vms {
		indexOf[v] = i
	}
	type pair struct {
		a, b  int
		score float64
	}
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j, p.overlapFromSets(sets, window, i, j)})
		}
	}
	// The (a, b) tiebreak makes the order total, so the unstable sort
	// yields the same permutation as a stable one — without the O(n²)
	// pair slice's merge rotations.
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].score != pairs[y].score {
			return pairs[x].score > pairs[y].score
		}
		if pairs[x].a != pairs[y].a {
			return pairs[x].a < pairs[y].a
		}
		return pairs[x].b < pairs[y].b
	})
	used := make([]bool, n)
	for _, pr := range pairs {
		if used[pr.a] || used[pr.b] {
			continue
		}
		used[pr.a] = true
		used[pr.b] = true
		a, b := vms[pr.a], vms[pr.b]
		if a.Host() != nil && a.Host() == b.Host() {
			continue // already together
		}
		// Skip churn when the pairing gain is marginal: compare against
		// the VM's current best overlap with a host mate.
		if pr.score < p.currentScore(sets, window, indexOf, a)+p.opts.StickyMargin &&
			pr.score < p.currentScore(sets, window, indexOf, b)+p.opts.StickyMargin {
			continue
		}
		p.colocate(c, a, b)
	}
}

// currentScore is the VM's best idle overlap with a current host mate,
// read from the round's precomputed idle bitsets.
func (p *Policy) currentScore(sets [][]uint64, window int, indexOf map[*cluster.VM]int, v *cluster.VM) float64 {
	h := v.Host()
	if h == nil {
		return -1
	}
	best := 0.0
	for _, mate := range h.VMs() {
		if mate == v {
			continue
		}
		if s := p.overlapFromSets(sets, window, indexOf[v], indexOf[mate]); s > best {
			best = s
		}
	}
	return best
}

// colocate tries to bring a and b onto one host: first b to a's host,
// then a to b's host, then both to any host with two free slots.
func (p *Policy) colocate(c *cluster.Cluster, a, b *cluster.VM) {
	if a.Host() != nil && a.Host().CanHost(b) {
		if b.Host() == nil {
			_ = c.Place(b, a.Host())
		} else {
			_ = c.Migrate(b, a.Host())
		}
		return
	}
	if b.Host() != nil && b.Host().CanHost(a) {
		if a.Host() == nil {
			_ = c.Place(a, b.Host())
		} else {
			_ = c.Migrate(a, b.Host())
		}
		return
	}
	for _, h := range c.Hosts() {
		if h == a.Host() || h == b.Host() {
			continue
		}
		if hostFits(h, a, b) {
			moveTo(c, a, h)
			moveTo(c, b, h)
			return
		}
	}
}

// hostFits reports whether h can take both VMs at once.
func hostFits(h *cluster.Host, a, b *cluster.VM) bool {
	if h.MaxVMs > 0 && h.NumVMs()+2 > h.MaxVMs {
		return false
	}
	return h.MemUsed()+a.MemGB+b.MemGB <= h.MemGB
}

func moveTo(c *cluster.Cluster, v *cluster.VM, h *cluster.Host) {
	if v.Host() == nil {
		_ = c.Place(v, h)
	} else if v.Host() != h {
		_ = c.Migrate(v, h)
	}
}
