// Package drowsy implements Drowsy-DC's idleness-aware VM placement
// (§III of the paper): the consolidation-support module that augments a
// classic consolidator (Neat) with the idleness probability (IP) derived
// from each VM's idleness model.
//
// The policy keeps Neat's detection stages (overloaded / underloaded
// hosts) and changes what Neat calls steps (3) and (4):
//
//   - VM selection: off an overloaded host, prefer the VMs whose IP is
//     furthest from the host's IP (most misplaced idleness-wise); for
//     similar distances (within a tolerance) the classic criterion —
//     minimum migration time — breaks the tie.
//
//   - VM placement: treat the biggest VMs first and send each to the
//     suitable host with the IP closest to the VM's IP.
//
// After the classic passes, an opportunistic, purely IP-based step
// narrows each host's IP range: when the most idle and the most active
// VM of a host differ by more than 7σ (about one week of constant
// maximum activity in an SI_d score), the extreme VMs are migrated to
// closer-IP hosts. The goal is servers whose VMs agree on when to be
// idle — those are the ones the suspending module can actually put to
// sleep.
package drowsy

import (
	"fmt"
	"math"
	"sort"

	"drowsydc/internal/cluster"
	"drowsydc/internal/core"
	"drowsydc/internal/neat"
	"drowsydc/internal/simtime"
)

// IPRangeThreshold is the 7σ bound on a host's IP spread (§III-D): σ is
// the activity scaling factor of the idleness model, so 7σ "roughly
// represents a difference of a week of constant maximum activity".
const IPRangeThreshold = 7 * core.Sigma

// DistanceTolerance groups IP distances considered equal when sorting
// (§III-D footnote: "there is a tolerance when sorting by distance so
// close distances are considered equal"). One σ — an hour of constant
// activity — is below any meaningful behavioural difference.
const DistanceTolerance = core.Sigma

// tieEpsilon breaks exact score ties toward a VM's current host; far
// below σ, it can never override a behavioural difference.
const tieEpsilon = 1e-12

// StickyTolerance is the IP-distance bonus a VM's current host gets in
// full-relocation mode, as required alignment gain per migration; it
// keeps placements stable once matching VMs have converged without
// blocking early re-pairing (it only applies when the current host
// keeps other VMs — staying on an otherwise-empty host preserves no
// colocation relationship). σ/10: profile distances between genuinely
// different behaviours grow by a few σ/10 per week of observations,
// while jitter-driven profile noise stays an order of magnitude below.
// Measured on the testbed and the DC-scale sweep, this converges within
// days with under one migration per VM per week and no flapping.
const StickyTolerance = DistanceTolerance / 10

// Options configures the policy.
type Options struct {
	// FullRelocation enables the evaluation mode of §VI-A-1: every
	// rebalance reconsiders the placement of all VMs instead of waiting
	// for an overload/underload trigger. The paper uses it to expose the
	// consolidation quality; it performs more migrations than production
	// settings would.
	FullRelocation bool
}

// Policy is the Drowsy-DC consolidation policy.
type Policy struct {
	opts Options
	// neat supplies the detection stages: RecordHour feeds it, and the
	// production round asks it which hosts are overloaded.
	neat *neat.Policy
	// ipEvaluations counts IP lookups during rebalancing; together with
	// oasis.PairEvaluations it supports the O(n) vs O(n²) comparison of
	// §VII.
	ipEvaluations uint64

	// Round-scratch buffers reused across rebalance calls. A policy
	// instance drives exactly one simulation (the parallel experiment
	// driver constructs one per run), so reuse is safe and keeps the
	// hourly rebalance allocation-free in steady state.
	scratch struct {
		stamps      [ProfileHours]simtime.Stamp
		stampsHr    simtime.Hour
		stampsValid bool
		backing     [][ProfileHours]float64
		cands       []relocCand
		plan        []cluster.Assignment
		planJ       []int32
		curJ        []int32
		state       []hostBuild
		means       [][ProfileHours]float64
		sums        [][ProfileHours]float64
		counts      []int
		costMeans   [][ProfileHours]float64
		vmHost      []int32
		// index is the production round's host index.
		index hostIndex
	}
}

// New creates a Drowsy-DC policy.
func New(opts Options) *Policy { return &Policy{opts: opts, neat: neat.New()} }

// Name implements cluster.Policy.
func (p *Policy) Name() string {
	if p.opts.FullRelocation {
		return "drowsy-full"
	}
	return "drowsy"
}

// RecordHour forwards the hourly utilization observation to the wrapped
// Neat policy, whose overload detector Drowsy-DC reuses.
func (p *Policy) RecordHour(c *cluster.Cluster, hr simtime.Hour, util []float64) {
	p.neat.RecordHour(c, hr, util)
}

// IPEvaluations returns the cumulative number of per-VM IP evaluations.
func (p *Policy) IPEvaluations() uint64 { return p.ipEvaluations }

// vmIP reads a VM's IP for the next interval and counts the evaluation.
func (p *Policy) vmIP(v *cluster.VM, hr simtime.Hour) float64 {
	p.ipEvaluations++
	return v.IP(hr)
}

// PlaceNew implements cluster.Policy: the Nova-weigher integration
// (§III-D-a). Hosts unable to take the VM are filtered; the remaining
// hosts are weighted by IP proximity, preferring — within the distance
// tolerance — hosts whose IP the VM would increase (idle VMs gravitate
// toward idle servers, and a server's IP should rise so it eventually
// sleeps).
func (p *Policy) PlaceNew(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour) (*cluster.Host, error) {
	vip := p.vmIP(v, hr)
	var best *cluster.Host
	bestDist := math.Inf(1)
	bestIP := math.Inf(-1)
	for _, h := range c.Hosts() {
		if !h.CanHost(v) {
			continue
		}
		hip := h.IP(hr)
		dist := math.Abs(hip - vip)
		switch {
		case dist < bestDist-DistanceTolerance:
			best, bestDist, bestIP = h, dist, hip
		case dist < bestDist+DistanceTolerance && hip > bestIP:
			// Similar proximity: prefer the host with the higher IP so
			// adding the VM raises the sleepier server further.
			best, bestDist, bestIP = h, dist, hip
		}
	}
	if best == nil {
		return nil, fmt.Errorf("drowsy: no host can fit VM %s", v.Name)
	}
	return best, nil
}

// Rebalance implements cluster.Policy.
func (p *Policy) Rebalance(c *cluster.Cluster, hr simtime.Hour) {
	if p.opts.FullRelocation {
		p.fullRelocate(c, hr, (*Policy).pick)
		return
	}
	x := p.round(c, hr)
	p.relieveOverloaded(x)
	p.evacuateUnderloaded(x)
	p.opportunistic(x)
}

// round resets the policy's host index for a production round at hr.
// The index is round scratch, reused across rounds like the
// full-relocation buffers.
func (p *Policy) round(c *cluster.Cluster, hr simtime.Hour) *hostIndex {
	p.scratch.index.reset(c, hr)
	return &p.scratch.index
}

// relieveOverloaded is Neat step 2+3+4 with IP-aware selection and
// placement.
func (p *Policy) relieveOverloaded(x *hostIndex) {
	for i, h := range x.hosts {
		if !p.neat.Overloaded(h) {
			continue
		}
		for _, v := range p.selectionOrder(h, x.hr) {
			if h.Utilization(x.hr) <= neat.OverloadThreshold {
				break
			}
			dst := p.placeClosestIP(x, v, h)
			if dst < 0 {
				break
			}
			_ = x.migrate(v, i, dst)
		}
	}
}

// selectionOrder sorts a host's VMs for eviction: primary key is the IP
// distance to the host's IP, descending (most misplaced first); within
// the distance tolerance the classic MMT criterion (smallest memory)
// applies.
func (p *Policy) selectionOrder(h *cluster.Host, hr simtime.Hour) []*cluster.VM {
	hip := h.IP(hr)
	type evictCand struct {
		vm   *cluster.VM
		dist float64
	}
	cands := make([]evictCand, h.NumVMs())
	for i, v := range h.VMs() {
		cands[i] = evictCand{v, math.Abs(p.vmIP(v, hr) - hip)}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if math.Abs(a.dist-b.dist) > DistanceTolerance {
			return a.dist > b.dist
		}
		if a.vm.MemGB != b.vm.MemGB {
			return a.vm.MemGB < b.vm.MemGB
		}
		return a.vm.ID < b.vm.ID
	})
	vms := make([]*cluster.VM, len(cands))
	for i, c := range cands {
		vms[i] = c.vm
	}
	return vms
}

// placeClosestIP returns the index of the suitable destination with the
// IP closest to the VM's (§III-D step 4), excluding the avoid host, or
// −1 when none fits. Suitability uses Neat's overload budget; when
// nothing fits under it, the budget is relaxed (a stranded VM is worse
// than a temporary hot spot). Equally close hosts resolve to the first
// in cluster order.
func (p *Policy) placeClosestIP(x *hostIndex, v *cluster.VM, avoid *cluster.Host) int {
	vip := p.vmIP(v, x.hr)
	demand := v.Activity(x.hr) * float64(v.VCPUs)
	pick := func(relaxed bool) int {
		return x.nearest(vip, func(i int) bool {
			h := x.hosts[i]
			if h == avoid || h == v.Host() || !h.CanHost(v) {
				return false
			}
			return relaxed || !(h.Utilization(x.hr)+demand/float64(h.VCPUs) > neat.OverloadThreshold)
		})
	}
	if i := pick(false); i >= 0 {
		return i
	}
	return pick(true)
}

// evacuateUnderloaded is Neat step 1 with IP-aware placement of the
// displaced VMs.
func (p *Policy) evacuateUnderloaded(x *hostIndex) {
	for _, i := range x.byUtilization() {
		h := x.hosts[i]
		if h.NumVMs() == 0 || h.Utilization(x.hr) >= neat.UnderloadThreshold {
			continue
		}
		for _, v := range cluster.SortVMsByMemDesc(h.VMs()) {
			dst := p.placeClosestIP(x, v, h)
			if dst < 0 {
				break
			}
			if err := x.migrate(v, int(i), dst); err != nil {
				break
			}
		}
	}
}

// opportunistic is the purely IP-based pass of §III-D: hosts whose VM IP
// range exceeds 7σ shed their most extreme VMs until the range is under
// the threshold. Both ends of the range (the most idle and the most
// active VM) are candidates; whichever has a strictly closer destination
// moves, preferring the larger improvement.
func (p *Policy) opportunistic(x *hostIndex) {
	hr := x.hr
	for i, h := range x.hosts {
		// Bounded by the VM count: each iteration removes one VM.
		for iter := 0; iter < len(h.VMs()); iter++ {
			if h.IPRange(hr) <= IPRangeThreshold {
				break
			}
			var bestVM *cluster.VM
			bestDst := -1
			bestGain := 0.0
			for _, v := range p.boundaryVMs(h, hr) {
				dst := p.placeClosestIP(x, v, h)
				if dst < 0 {
					continue
				}
				vip := p.vmIP(v, hr)
				gain := math.Abs(x.ip[i]-vip) - math.Abs(x.ip[dst]-vip)
				if gain > bestGain {
					bestGain = gain
					bestVM, bestDst = v, dst
				}
			}
			if bestVM == nil {
				break // no move actually brings a VM closer to its peers
			}
			if err := x.migrate(bestVM, i, bestDst); err != nil {
				break
			}
		}
	}
}

// boundaryVMs returns the VMs holding the extreme IPs of a host: the
// most active (lowest IP) and the most idle (highest IP).
func (p *Policy) boundaryVMs(h *cluster.Host, hr simtime.Hour) []*cluster.VM {
	vms := h.VMs()
	if len(vms) == 0 {
		return nil
	}
	lo, hi := vms[0], vms[0]
	first := p.vmIP(vms[0], hr)
	loIP, hiIP := first, first
	for _, v := range vms[1:] {
		ip := p.vmIP(v, hr)
		if ip < loIP {
			lo, loIP = v, ip
		}
		if ip > hiIP {
			hi, hiIP = v, ip
		}
	}
	if lo == hi {
		return []*cluster.VM{lo}
	}
	return []*cluster.VM{lo, hi}
}

// ProfileHours is the matching horizon of the full-relocation mode: a
// VM is matched on its IP profile over the next day rather than the
// single next hour. The paper relocates every hour with the scalar
// next-interval IP, which sweeps the daily pattern implicitly; with a
// coarser relocation cadence (and hysteresis against migration churn)
// the day-profile distance is the faithful-in-effect equivalent — it
// distinguishes a business-hours VM from an evening VM with the same
// total idleness, exactly what hourly scalar relocation would achieve
// over a day. Matching stays O(n) in the number of VMs (a 24× constant
// factor).
const ProfileHours = 24

// vmProfile reads a VM's IP for each hour of the matching horizon. The
// calendar stamps are passed in: they depend only on the round's hour,
// so fullRelocate decomposes them once and shares them across all VMs
// instead of re-deriving them per (VM, hour).
func (p *Policy) vmProfile(v *cluster.VM, stamps *[ProfileHours]simtime.Stamp) [ProfileHours]float64 {
	var out [ProfileHours]float64
	v.Model.IPProfileInto(stamps[:], out[:])
	p.ipEvaluations += ProfileHours
	return out
}

// profileDist is the mean absolute difference of two IP profiles.
func profileDist(a, b *[ProfileHours]float64) float64 {
	s := 0.0
	for k := range a {
		s += math.Abs(a[k] - b[k])
	}
	return s / ProfileHours
}

// fullRelocate is the evaluation mode of §VI-A-1: every rebalance
// reconsiders the placement of all VMs, computing a fresh assignment
// greedily and applying it atomically (so cyclic exchanges are possible
// on a fully packed cluster, as on the paper's 4×2-slot testbed).
//
// VMs are treated biggest-first; equal-size VMs by ascending mean IP so
// the most active cluster together first and idle VMs then pair up by
// IP-profile proximity. Each VM prefers the partially-built host whose
// running profile is closest to its own. The fresh plan is then
// compared with the current placement: it is applied only when its
// alignment gain exceeds the sticky tolerance per migration — the
// hysteresis that keeps converged placements put (the paper's Figure 2
// reports at most 3 migrations per VM over a week) while still allowing
// early re-pairing of matching VMs.
//
// pick chooses each VM's host from the round's build state; Rebalance
// passes (*Policy).pick.
func (p *Policy) fullRelocate(c *cluster.Cluster, hr simtime.Hour, pick pickFunc) {
	orig := c.VMs()
	n := len(orig)
	// The stamp window only depends on the round's hour; consecutive
	// rounds share all but the last entry, so slide instead of
	// re-decomposing (Decompose is deterministic — same values).
	stamps := &p.scratch.stamps
	if p.scratch.stampsValid && hr == p.scratch.stampsHr+1 {
		copy(stamps[:ProfileHours-1], stamps[1:])
		stamps[ProfileHours-1] = simtime.Decompose(hr + ProfileHours - 1)
	} else {
		for k := range stamps {
			stamps[k] = simtime.Decompose(hr + simtime.Hour(k))
		}
	}
	p.scratch.stampsHr = hr
	p.scratch.stampsValid = true
	// Profiles are computed in cluster VM order, so backing[i] belongs
	// to c.VMs()[i] and alignmentCost can index it without a map.
	if cap(p.scratch.backing) < n {
		p.scratch.backing = make([][ProfileHours]float64, n)
		p.scratch.cands = make([]relocCand, n)
		p.scratch.curJ = make([]int32, n)
		p.scratch.planJ = make([]int32, n)
	}
	backing := p.scratch.backing[:n]
	cands := p.scratch.cands[:n]
	for i, v := range orig {
		backing[i] = p.vmProfile(v, stamps)
		prof := &backing[i]
		mean := 0.0
		for _, x := range prof {
			mean += x
		}
		cands[i] = relocCand{vm: v, prof: prof, ip: mean / ProfileHours, origIdx: int32(i)}
	}
	// The ID tiebreak makes the order total, so an unstable sort yields
	// the same permutation as a stable one.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vm.MemGB != cands[j].vm.MemGB {
			return cands[i].vm.MemGB > cands[j].vm.MemGB
		}
		if cands[i].ip != cands[j].ip {
			return cands[i].ip < cands[j].ip
		}
		return cands[i].vm.ID < cands[j].vm.ID
	})

	// Build the assignment against virtual host loads. CPU demand is
	// budgeted by Neat's overload threshold so the IP-driven packing
	// never creates hot spots the classic criteria would veto; when the
	// budget leaves a VM stranded, a relaxed pass ignores it. Each
	// host's running mean profile is refreshed once per placement, so a
	// pick pass reads it instead of re-deriving it per candidate host.
	hosts := c.Hosts()
	state, means := p.buildState(len(hosts))
	plan := p.scratch.plan[:0]
	planJ := p.scratch.planJ[:n]
	for i := range planJ {
		planJ[i] = -1
	}
	for ci := range cands {
		v := cands[ci].vm
		vprof := cands[ci].prof
		demand := v.Activity(hr) * float64(v.VCPUs)
		hi := pick(p, hosts, v, vprof, demand, false)
		if hi < 0 {
			hi = pick(p, hosts, v, vprof, demand, true)
		}
		if hi < 0 {
			continue // nowhere to put this VM; leave it where it is
		}
		b := &state[hi]
		b.mem += v.MemGB
		b.num++
		b.cpu += demand
		for k := range vprof {
			b.profSum[k] += vprof[k]
		}
		b.placed++
		for k := range means[hi] {
			means[hi][k] = b.profSum[k] / float64(b.placed)
		}
		planJ[cands[ci].origIdx] = int32(hi)
		plan = append(plan, cluster.Assignment{VM: v, Host: hosts[hi]})
	}
	p.scratch.plan = plan

	// Plan-level hysteresis: apply only when the alignment gain pays
	// for the migrations. Unplaced VMs force application.
	moves := 0
	forced := false
	for _, a := range plan {
		if a.VM.Host() == nil {
			forced = true
		} else if a.VM.Host() != a.Host {
			moves++
		}
	}
	if moves == 0 && !forced {
		return
	}
	if !forced {
		curJ := p.scratch.curJ[:n]
		for i, v := range orig {
			if h := v.Host(); h != nil {
				curJ[i] = int32(h.Pos())
			} else {
				curJ[i] = -1
			}
		}
		curCost := p.alignmentCost(backing, curJ, nil, len(hosts))
		planCost := p.alignmentCost(backing, curJ, planJ, len(hosts))
		if curCost-planCost <= float64(moves)*StickyTolerance {
			return // not enough improvement to justify the churn
		}
	}
	_ = c.ApplyAssignments(plan)
}

// relocCand pairs a VM with its round profile for the placement sort.
type relocCand struct {
	vm      *cluster.VM
	prof    *[ProfileHours]float64
	ip      float64 // mean of prof, the secondary sort key
	origIdx int32   // position in c.VMs() order
}

// pickFunc chooses v's host in a full-relocation round (see pick).
type pickFunc func(p *Policy, hosts []*cluster.Host, v *cluster.VM, vprof *[ProfileHours]float64, demand float64, relaxed bool) int

// pick returns the index of the host a full-relocation round places v
// on, or −1 when none fits. Among the hosts with a free slot, room for
// v's memory and, unless relaxed, CPU budget for its demand in the
// round's build state, it takes the host whose running mean profile is
// closest to vprof: the lowest index among equal scores, with
// tieEpsilon favouring v's current host.
//
// A host with nothing placed yet has the all-zero mean, so every such
// host is at the same distance Σ_k |0 − vprof[k]|. It is summed once
// per call, in the scan's order; |0 − x| and |x| are the same bits, so
// each empty host scores exactly what the per-host sum would give. The
// per-host sum's early exit never changes a winner (partial sums of
// non-negative terms only grow), so skipping it for empty hosts selects
// the same host. On a fleet being rebuilt from scratch every round most
// hosts are empty for most of the VMs.
func (p *Policy) pick(hosts []*cluster.Host, v *cluster.VM, vprof *[ProfileHours]float64, demand float64, relaxed bool) int {
	state, means := p.scratch.state, p.scratch.means
	empty := 0.0
	for _, x := range vprof {
		empty += math.Abs(x)
	}
	empty /= ProfileHours
	best := -1
	bestScore := math.Inf(1)
	for hi, h := range hosts {
		b := &state[hi]
		if h.MaxVMs > 0 && b.num+1 > h.MaxVMs {
			continue
		}
		if b.mem+v.MemGB > h.MemGB {
			continue
		}
		if !relaxed && (b.cpu+demand)/float64(h.VCPUs) > neat.OverloadThreshold {
			continue
		}
		// Near-ties resolve toward the current host so a converged pair
		// does not ping-pong between identical empty servers.
		eps := 0.0
		if h == v.Host() {
			eps = tieEpsilon
		}
		score := empty - eps
		if b.placed > 0 {
			// Distance with exact early exit: the partial score
			// s/ProfileHours − eps is monotone in the partial sum, so
			// once it reaches bestScore this host cannot win and the
			// rest of the scan is skipped. Winners always run the full
			// sum, so the selected score is unchanged.
			hm := &means[hi]
			s := 0.0
			beaten := false
			for k := 0; k < ProfileHours; k++ {
				s += math.Abs(hm[k] - vprof[k])
				if k&7 == 7 && s/ProfileHours-eps >= bestScore {
					beaten = true
					break
				}
			}
			if beaten {
				continue
			}
			score = s/ProfileHours - eps
		}
		if score < bestScore {
			bestScore = score
			best = hi
		}
	}
	return best
}

// hostBuild tracks the virtual load of one host while a fresh
// assignment is built.
type hostBuild struct {
	mem, num int
	cpu      float64 // vCPU-weighted demand at hr
	profSum  [ProfileHours]float64
	placed   int
}

// buildState returns the per-host virtual-load trackers and running
// mean profiles (zero = undetermined), reset for a new round; the
// slices are reused across rounds.
func (p *Policy) buildState(nh int) ([]hostBuild, [][ProfileHours]float64) {
	if cap(p.scratch.state) < nh {
		p.scratch.state = make([]hostBuild, nh)
		p.scratch.means = make([][ProfileHours]float64, nh)
	}
	state := p.scratch.state[:nh]
	means := p.scratch.means[:nh]
	for i := range state {
		state[i] = hostBuild{}
		means[i] = [ProfileHours]float64{}
	}
	return state, means
}

// alignmentCost measures how misaligned VM idleness is with host
// companions: Σ_v profileDist(profile(v), mean profile of v's host's
// VMs). profiles and curJ are indexed in c.VMs() order; curJ holds
// each VM's current host index (−1 unplaced). planJ, when non-nil,
// overrides the grouping with the hypothetical plan (−1 = keep the
// current host). Group sums accumulate in reused scratch slices
// indexed by host, and each host's mean is derived once — the same
// expression the per-VM derivation evaluated, so every distance term
// is bit-identical to the naive form.
func (p *Policy) alignmentCost(profiles [][ProfileHours]float64, curJ, planJ []int32, nh int) float64 {
	n := len(curJ)
	if cap(p.scratch.sums) < nh {
		p.scratch.sums = make([][ProfileHours]float64, nh)
		p.scratch.counts = make([]int, nh)
		p.scratch.costMeans = make([][ProfileHours]float64, nh)
	}
	if cap(p.scratch.vmHost) < n {
		p.scratch.vmHost = make([]int32, n)
	}
	sums := p.scratch.sums[:nh]
	counts := p.scratch.counts[:nh]
	costMeans := p.scratch.costMeans[:nh]
	vmHost := p.scratch.vmHost[:n]
	for i := range sums {
		sums[i] = [ProfileHours]float64{}
		counts[i] = 0
	}
	for i := 0; i < n; i++ {
		j := curJ[i]
		if planJ != nil && planJ[i] >= 0 {
			j = planJ[i]
		}
		vmHost[i] = j
		if j < 0 {
			continue
		}
		for k := range profiles[i] {
			sums[j][k] += profiles[i][k]
		}
		counts[j]++
	}
	// Host means, derived once per host.
	for j := range costMeans {
		if counts[j] == 0 {
			continue
		}
		nj := float64(counts[j])
		for k := range costMeans[j] {
			costMeans[j][k] = sums[j][k] / nj
		}
	}
	cost := 0.0
	for i := 0; i < n; i++ {
		j := vmHost[i]
		if j < 0 {
			continue
		}
		cost += profileDist(&profiles[i], &costMeans[j])
	}
	return cost
}
