package neat

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// livePABFD is PABFD reading Host.Utilization live on every host it
// considers, with the relaxed pass: the reference for PlaceNew and the
// round's overload relief.
func livePABFD(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour) (*cluster.Host, error) {
	var best *cluster.Host
	bestUtil := -1.0
	demand := v.Activity(hr) * float64(v.VCPUs)
	for _, h := range c.Hosts() {
		if h == v.Host() || !h.CanHost(v) {
			continue
		}
		util := h.Utilization(hr)
		after := util + demand/float64(h.VCPUs)
		if after > OverloadThreshold {
			continue
		}
		if util > bestUtil {
			bestUtil = util
			best = h
		}
	}
	if best == nil {
		for _, h := range c.Hosts() {
			if h != v.Host() && h.CanHost(v) {
				if best == nil || h.Utilization(hr) > bestUtil {
					best = h
					bestUtil = h.Utilization(hr)
				}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("neat: no host can fit VM %s", v.Name)
	}
	return best, nil
}

// livePlaceAvoiding is PABFD's strict pass restricted to destinations
// other than avoid, reading Host.Utilization live: the reference for
// the round's evacuation.
func livePlaceAvoiding(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour, avoid *cluster.Host) (*cluster.Host, error) {
	var best *cluster.Host
	bestUtil := -1.0
	demand := v.Activity(hr) * float64(v.VCPUs)
	for _, h := range c.Hosts() {
		if h == avoid || h == v.Host() || !h.CanHost(v) {
			continue
		}
		util := h.Utilization(hr)
		if util+demand/float64(h.VCPUs) > OverloadThreshold {
			continue
		}
		if util > bestUtil {
			bestUtil = util
			best = h
		}
	}
	if best == nil {
		return nil, fmt.Errorf("neat: no destination for %s avoiding %s", v.Name, avoid.Name)
	}
	return best, nil
}

// liveRebalance is the Neat round reading Host.Utilization live at
// every check, sort comparison and destination search: the reference
// the table-driven Rebalance must reproduce exactly.
func liveRebalance(p *Policy, c *cluster.Cluster, hr simtime.Hour) {
	for _, h := range c.Hosts() {
		if !p.Overloaded(h) {
			continue
		}
		for _, v := range mmt(h) {
			if h.Utilization(hr) <= OverloadThreshold {
				break
			}
			dst, err := livePABFD(c, v, hr)
			if err != nil {
				break
			}
			_ = c.Migrate(v, dst)
		}
	}
	hosts := append([]*cluster.Host(nil), c.Hosts()...)
	sort.SliceStable(hosts, func(i, j int) bool {
		return hosts[i].Utilization(hr) < hosts[j].Utilization(hr)
	})
	for _, h := range hosts {
		if h.NumVMs() == 0 {
			continue
		}
		if h.Utilization(hr) >= UnderloadThreshold {
			continue
		}
		for _, v := range cluster.SortVMsByMemDesc(h.VMs()) {
			dst, err := livePlaceAvoiding(c, v, hr, h)
			if err != nil {
				break
			}
			if err := c.Migrate(v, dst); err != nil {
				break
			}
		}
	}
}

// neatFleet builds hosts of hetero-fleet-year's three classes (std,
// dense, legacy), each starting with four VMs of mixed size and
// workload: the legacy hosts run hot enough to overload, the dense
// ones cool enough to evacuate.
func neatFleet(nHosts int) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < nHosts; i++ {
		switch i % 3 {
		case 0:
			c.AddHost(cluster.NewHost(i, fmt.Sprint("std", i), 64, 16, 8))
		case 1:
			c.AddHost(cluster.NewHost(i, fmt.Sprint("dense", i), 96, 24, 12))
		default:
			c.AddHost(cluster.NewHost(i, fmt.Sprint("legacy", i), 48, 12, 6))
		}
	}
	for i := 0; i < 4*nHosts; i++ {
		c.AddVM(neatVM(i))
		_ = c.Place(c.VMs()[i], c.Hosts()[i%nHosts])
	}
	return c
}

// neatVM is the i-th VM of neatFleet's cycle of four shapes.
func neatVM(i int) *cluster.VM {
	name := fmt.Sprint("v", i)
	switch i % 4 {
	case 0:
		return cluster.NewVM(i, name, cluster.KindLLMU, 8, 8, trace.Variant(trace.LLMU(uint64(i)), uint64(i), i%5))
	case 1:
		return cluster.NewVM(i, name, cluster.KindLLMI, 4, 4, trace.Variant(trace.RealTrace(1+i%5), uint64(i), i%7))
	case 2:
		return cluster.NewVM(i, name, cluster.KindLLMI, 4, 2, trace.Variant(trace.DailyBackup(0.6), uint64(i), 2*(i%5)))
	default:
		return cluster.NewVM(i, name, cluster.KindLLMU, 6, 6, trace.Variant(trace.LLMU(uint64(i)), uint64(i), 3*(i%3)))
	}
}

// TestRebalanceMatchesLiveReference runs the table-driven round and
// the live reference side by side on twin fleets for a week of hourly
// rounds, with an arrival placed every twelve hours, and requires
// identical placements and migration counts after every round.
func TestRebalanceMatchesLiveReference(t *testing.T) {
	for _, hosts := range []int{12, 24} {
		t.Run(fmt.Sprintf("thr/mmt/hosts-%d", hosts), func(t *testing.T) {
			a, b := neatFleet(hosts), neatFleet(hosts)
			p, ref := New(), New()
			next := 4 * hosts
			for hr := simtime.Hour(0); hr < 7*24; hr++ {
				if hr%12 == 0 {
					va, vb := neatVM(next), neatVM(next)
					next++
					a.AddVM(va)
					b.AddVM(vb)
					ha, errA := p.PlaceNew(a, va, hr)
					hb, errB := livePABFD(b, vb, hr)
					if (errA == nil) != (errB == nil) || (errA == nil && ha.ID != hb.ID) {
						t.Fatalf("hour %d: PlaceNew chose %v (%v), live reference %v (%v)", hr, ha, errA, hb, errB)
					}
					if errA == nil {
						_ = a.Place(va, ha)
						_ = b.Place(vb, hb)
					}
				}
				p.Rebalance(a, hr)
				liveRebalance(ref, b, hr)
				if got, want := a.Assignments(), b.Assignments(); !slices.Equal(got, want) {
					t.Fatalf("hour %d: placements diverge from the live reference", hr)
				}
				if a.Migrations() != b.Migrations() {
					t.Fatalf("hour %d: migrations %d vs %d", hr, a.Migrations(), b.Migrations())
				}
				p.RecordHour(a, hr, utilAt(a, hr))
				ref.RecordHour(b, hr, utilAt(b, hr))
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if a.Migrations() < hosts {
				t.Fatalf("only %d migrations: the week did not exercise the round", a.Migrations())
			}
		})
	}
}
