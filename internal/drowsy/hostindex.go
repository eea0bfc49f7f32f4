package drowsy

import (
	"math"
	"slices"
	"sort"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
)

// hostIndex orders a cluster's hosts by IP for one production
// consolidation round, so the closest-IP destination search of §III-D
// step 4 walks outward from the VM's IP instead of scanning every host.
//
// The search is exact: it returns the host the linear scan in cluster
// host order would, ties included. Each cached IP is Host.IP's own
// result, and the round's migrations go through migrate, which
// recomputes both endpoints, so the cache always equals what a scan of
// the live hosts would read. Feasibility (slots, memory, CPU budget) is
// checked on the live host, and only for the hosts the walk reaches.
//
// Hosts with every VM slot taken are left out of the order: no VM fits
// them, and on a packed fleet they are most of the hosts near any IP.
type hostIndex struct {
	c     *cluster.Cluster
	hr    simtime.Hour
	hosts []*cluster.Host
	ip    []float64 // ip[i] = hosts[i].IP(hr)
	// order holds the listed host indices sorted by (IP, index). A host
	// is listed when it has a free slot and its IP is not NaN: a NaN
	// distance never compares below another, so the linear scan cannot
	// select such a host either.
	order  []int32
	listed []bool
	// util and byUtil are scratch for evacuateUnderloaded's host order.
	util   []float64
	byUtil []int32
	// probes counts the hosts the walk tested for feasibility, across
	// rounds; a linear scan tests every host on every search.
	probes uint64
}

// reset rebuilds the index for a round at hour hr.
func (x *hostIndex) reset(c *cluster.Cluster, hr simtime.Hour) {
	x.c, x.hr, x.hosts = c, hr, c.Hosts()
	n := len(x.hosts)
	x.ip = slices.Grow(x.ip[:0], n)[:n]
	x.listed = slices.Grow(x.listed[:0], n)[:n]
	x.order = x.order[:0]
	for i, h := range x.hosts {
		x.ip[i] = h.IP(hr)
		x.listed[i] = x.listable(i)
		if x.listed[i] {
			x.order = append(x.order, int32(i))
		}
	}
	slices.SortFunc(x.order, func(a, b int32) int {
		switch {
		case x.less(a, b):
			return -1
		case x.less(b, a):
			return 1
		}
		return 0
	})
}

// less is the order's key comparison: IP, then host index.
func (x *hostIndex) less(a, b int32) bool {
	return x.ip[a] < x.ip[b] || (x.ip[a] == x.ip[b] && a < b)
}

// rank returns the position host i holds, or would hold, in the order.
func (x *hostIndex) rank(i int32) int {
	return sort.Search(len(x.order), func(k int) bool { return !x.less(x.order[k], i) })
}

// migrate live-migrates v from host src to host dst (host indices) and
// re-keys both endpoints.
func (x *hostIndex) migrate(v *cluster.VM, src, dst int) error {
	err := x.c.Migrate(v, x.hosts[dst])
	x.refresh(src)
	x.refresh(dst)
	return err
}

// listable reports whether host i belongs in the order.
func (x *hostIndex) listable(i int) bool {
	h := x.hosts[i]
	return !math.IsNaN(x.ip[i]) && (h.MaxVMs == 0 || h.NumVMs() < h.MaxVMs)
}

// refresh recomputes host i's IP and moves it to its new position.
func (x *hostIndex) refresh(i int) {
	k := int32(i)
	if x.listed[i] {
		at := x.rank(k) // still keyed by the old IP
		x.order = slices.Delete(x.order, at, at+1)
	}
	x.ip[i] = x.hosts[i].IP(x.hr)
	x.listed[i] = x.listable(i)
	if x.listed[i] {
		x.order = slices.Insert(x.order, x.rank(k), k)
	}
}

// nearest returns the index of the host minimizing |IP − vip| among
// those fits accepts, the lowest index among equally close ones, or −1.
// That is the host a scan in index order keeping only strict
// improvements selects, because distances are compared exactly as the
// scan computes them: math.Abs(ip − vip).
//
// The walk merges the two sides of vip in order of distance, which is
// monotone in each direction. Hosts with equal IP form a run sorted by
// index, so the first fitting host of a run is the run's best, and the
// walk stops once the next run is strictly farther than the best found.
func (x *hostIndex) nearest(vip float64, fits func(i int) bool) int {
	ord, ip := x.order, x.ip
	r := sort.Search(len(ord), func(k int) bool { return ip[ord[k]] >= vip })
	l := r - 1
	best, bestDist := -1, math.Inf(1)
	for l >= 0 || r < len(ord) {
		left := l >= 0
		var d float64
		if left {
			d = math.Abs(ip[ord[l]] - vip)
		}
		if r < len(ord) {
			if dr := math.Abs(ip[ord[r]] - vip); !left || dr < d {
				left, d = false, dr
			}
		}
		// Distances only grow from here: stop past the best, or when
		// nothing can ever be strictly closer than +Inf (or NaN).
		if d > bestDist || (best < 0 && !(d < bestDist)) {
			break
		}
		var run []int32
		if left {
			g := ip[ord[l]]
			lo := sort.Search(l, func(k int) bool { return ip[ord[k]] >= g })
			run, l = ord[lo:l+1], lo-1
		} else {
			g := ip[ord[r]]
			n := sort.Search(len(ord)-r, func(k int) bool { return ip[ord[r+k]] > g })
			run, r = ord[r:r+n], r+n
		}
		for _, k := range run {
			if best >= 0 && int(k) > best {
				break // an equally close host with a lower index already won
			}
			x.probes++
			if fits(int(k)) {
				best, bestDist = int(k), d
				break
			}
		}
	}
	return best
}

// byUtilization returns the host indices sorted by ascending
// utilization, stably: the order sort.SliceStable gives the hosts under
// the comparator Utilization(i) < Utilization(j), with each host's
// utilization computed once instead of per comparison.
func (x *hostIndex) byUtilization() []int32 {
	x.util, x.byUtil = x.util[:0], x.byUtil[:0]
	for i, h := range x.hosts {
		x.util = append(x.util, h.Utilization(x.hr))
		x.byUtil = append(x.byUtil, int32(i))
	}
	sort.SliceStable(x.byUtil, func(a, b int) bool { return x.util[x.byUtil[a]] < x.util[x.byUtil[b]] })
	return x.byUtil
}
