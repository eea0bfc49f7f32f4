// Package neat reimplements the OpenStack Neat dynamic VM consolidation
// framework that Drowsy-DC plugs into (§III-D of the paper; Beloglazov &
// Buyya, CCPE 2015). Neat splits consolidation into four sub-problems:
//
//  1. detect underloaded hosts (evacuate them entirely so they can be
//     switched to a low-power state);
//  2. detect overloaded hosts (migrate some VMs away to restore QoS);
//  3. select which VMs to migrate off an overloaded host;
//  4. place the selected VMs on other hosts.
//
// The policy runs the algorithms of the paper's Neat deployment:
// overload detection by static threshold (THR, Policy.Overloaded), VM
// selection by minimum migration time (MMT) and placement by
// power-aware best-fit decreasing (PABFD). Drowsy-DC reuses the
// detection stages unchanged and swaps in IP-aware selection and
// placement (internal/drowsy).
package neat

import (
	"fmt"
	"sort"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
)

// Thresholds of the paper's Neat deployment.
const (
	// OverloadThreshold is THR's static CPU threshold, and the
	// utilization budget PABFD places under.
	OverloadThreshold = 0.8
	// UnderloadThreshold marks hosts whose CPU utilization is low
	// enough that full evacuation pays off.
	UnderloadThreshold = 0.3
)

// mmt orders a host's VMs by minimum migration time, Neat's VM
// selection: smallest memory first (migration time is memory over
// bandwidth), ties by ID.
func mmt(h *cluster.Host) []*cluster.VM {
	out := append([]*cluster.VM(nil), h.VMs()...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MemGB != out[j].MemGB {
			return out[i].MemGB < out[j].MemGB
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Policy is the Neat consolidation policy.
type Policy struct {
	// last is every host's utilization for the last recorded hour,
	// indexed by Host.Pos: the one sample THR reads. RecordHour
	// overwrites it; it is empty before the first recorded hour.
	last []float64
	// util is the utilization table PABFD reads, indexed by Host.Pos:
	// util[i] is Hosts()[i].Utilization(hr) at the hour being placed.
	// PlaceNew and Rebalance fill it, and a round recomputes both
	// endpoints of every migration, so it always equals what the live
	// hosts would read. order is scratch for the underload sort.
	util  []float64
	order []int32
}

// New creates a Neat policy.
func New() *Policy { return &Policy{} }

// Name implements cluster.Policy.
func (p *Policy) Name() string { return "neat" }

// IdlenessBlind implements cluster.IdlenessBlind: Neat decides from
// host utilization alone.
func (p *Policy) IdlenessBlind() {}

// PlaceNew implements cluster.Policy using PABFD.
func (p *Policy) PlaceNew(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour) (*cluster.Host, error) {
	p.fillUtil(c, hr)
	if h := p.pabfd(c, v, hr, true); h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("neat: no host can fit VM %s", v.Name)
}

// fillUtil computes every host's utilization at hr into the table.
func (p *Policy) fillUtil(c *cluster.Cluster, hr simtime.Hour) {
	p.util = p.util[:0]
	for _, h := range c.Hosts() {
		p.util = append(p.util, h.Utilization(hr))
	}
}

// pabfd is power-aware best-fit decreasing (PABFD), Neat's placement
// step: it returns the host, other than v's own, whose power draw
// increases least when it takes v, or nil when none can. With
// identical linear power models the increase is identical everywhere,
// so — exactly like the reference implementation — the decision
// degenerates to best-fit: the feasible host with the highest current
// utilization that stays within the overload threshold, packing VMs
// onto as few hosts as possible. When nothing stays within it and relax
// is set, any host with room will do: refusing placement strands the
// VM. Utilizations come from the table, so it must be filled at hr.
func (p *Policy) pabfd(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour, relax bool) *cluster.Host {
	var best *cluster.Host
	bestUtil := -1.0
	demand := v.Activity(hr) * float64(v.VCPUs)
	hosts := c.Hosts()
	for i, h := range hosts {
		if h == v.Host() || !h.CanHost(v) {
			continue
		}
		util := p.util[i]
		if util+demand/float64(h.VCPUs) > OverloadThreshold {
			continue
		}
		if util > bestUtil {
			bestUtil = util
			best = h
		}
	}
	if best == nil && relax {
		for i, h := range hosts {
			if h != v.Host() && h.CanHost(v) {
				if best == nil || p.util[i] > bestUtil {
					best = h
					bestUtil = p.util[i]
				}
			}
		}
	}
	return best
}

// RecordHour implements cluster.HourRecorder: it keeps a copy of every
// host's utilization for the completed hour, util[h.Pos()], for
// Overloaded. The simulation runtime calls it at each hour boundary,
// and a resumed runner replays the call for the hour before its first.
func (p *Policy) RecordHour(_ *cluster.Cluster, _ simtime.Hour, util []float64) {
	p.last = append(p.last[:0], util...)
}

// Overloaded is Neat's static-threshold overload detector (THR): h is
// overloaded when its utilization in the last recorded hour exceeds
// OverloadThreshold. A host with no recorded hour is not.
func (p *Policy) Overloaded(h *cluster.Host) bool {
	i := h.Pos()
	return i < len(p.last) && p.last[i] > OverloadThreshold
}

// Rebalance implements cluster.Policy: the four Neat steps. Every
// utilization the round reads comes from the table, filled once here
// and recomputed at both endpoints of each migration (migrate).
func (p *Policy) Rebalance(c *cluster.Cluster, hr simtime.Hour) {
	p.fillUtil(c, hr)
	hosts := c.Hosts()
	// Step 2+3+4: relieve overloaded hosts.
	for i, h := range hosts {
		if !p.Overloaded(h) {
			continue
		}
		for _, v := range mmt(h) {
			if p.util[i] <= OverloadThreshold {
				break
			}
			dst := p.pabfd(c, v, hr, true)
			if dst == nil {
				break // nowhere to go; keep remaining VMs
			}
			_ = p.migrate(c, v, dst, hr)
		}
	}
	// Step 1+4: evacuate underloaded hosts (smallest first so freed
	// capacity concentrates). The order is the stable sort of the hosts
	// by their utilization after step 2.
	p.order = p.order[:0]
	for i := range hosts {
		p.order = append(p.order, int32(i))
	}
	sort.SliceStable(p.order, func(a, b int) bool { return p.util[p.order[a]] < p.util[p.order[b]] })
	for _, i := range p.order {
		h := hosts[i]
		if h.NumVMs() == 0 {
			continue
		}
		if p.util[i] >= UnderloadThreshold {
			continue
		}
		// Migrate the VMs one at a time, biggest first, and stop at the
		// first that has no destination: a host can end up only partly
		// evacuated.
		for _, v := range cluster.SortVMsByMemDesc(h.VMs()) {
			dst := p.pabfd(c, v, hr, false)
			if dst == nil {
				break
			}
			if err := p.migrate(c, v, dst, hr); err != nil {
				break
			}
		}
	}
}

// migrate live-migrates v to dst and recomputes the utilization of both
// endpoints in the table.
func (p *Policy) migrate(c *cluster.Cluster, v *cluster.VM, dst *cluster.Host, hr simtime.Hour) error {
	src := v.Host()
	err := c.Migrate(v, dst)
	p.util[src.Pos()] = src.Utilization(hr)
	p.util[dst.Pos()] = dst.Utilization(hr)
	return err
}
