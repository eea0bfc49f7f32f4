package drowsy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/neat"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// linearPick is the full-relocation pick with no shared empty-host
// score: every host with room runs the early-exit distance sum against
// its running mean, an empty host's all-zero mean included. It is the
// reference pick must reproduce exactly.
func linearPick(p *Policy, hosts []*cluster.Host, v *cluster.VM, vprof *[ProfileHours]float64, demand float64, relaxed bool) int {
	state, means := p.scratch.state, p.scratch.means
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
		eps := 0.0
		if h == v.Host() {
			eps = tieEpsilon
		}
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
		score := s/ProfileHours - eps
		if score < bestScore {
			bestScore = score
			best = hi
		}
	}
	return best
}

// heteroHost adds a host of one of hetero-fleet-year's three classes,
// cycling std, dense, legacy.
func heteroHost(c *cluster.Cluster, i int) {
	switch i % 3 {
	case 0:
		c.AddHost(cluster.NewHost(i, fmt.Sprint("std", i), 64, 16, 8))
	case 1:
		c.AddHost(cluster.NewHost(i, fmt.Sprint("dense", i), 96, 24, 12))
	default:
		c.AddHost(cluster.NewHost(i, fmt.Sprint("legacy", i), 48, 12, 6))
	}
}

// TestPickMatchesLinearReference drives pick and the linear reference
// with the same build states on seeded fleets of hetero-fleet-year's
// host classes, strict and relaxed, and requires the same host every
// time. Each state mixes full, partly built and empty hosts. Profiles
// come from a small dyadic set, and some partly built hosts hold the
// mean 2·vprof, whose distance |2x − x| = |x| ties exactly with an
// empty host's. The VM's current host is sometimes empty in the build
// state and sometimes not, so tieEpsilon meets both kinds of host.
func TestPickMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 3))
	levels := []float64{-0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75}
	profile := func() (out [ProfileHours]float64) {
		for k := range out {
			out[k] = levels[rng.IntN(len(levels))]
		}
		return out
	}
	var stats struct{ emptyWins, partWins, curEmptyWins, curPartWins, relaxed, none int }
	for trial := 0; trial < 300; trial++ {
		c := cluster.New()
		nHosts := 1 + rng.IntN(30)
		for i := 0; i < nHosts; i++ {
			heteroHost(c, i)
		}
		hosts := c.Hosts()
		p := New(Options{})
		state, means := p.buildState(nHosts)
		for q := 0; q < 20; q++ {
			v := cluster.NewVM(q, "v", cluster.KindLLMI, []int{4, 6}[rng.IntN(2)], 2,
				trace.Generator{Name: "const", Fn: trace.Const(0)})
			if rng.IntN(4) > 0 {
				_ = c.Place(v, hosts[rng.IntN(nHosts)])
			}
			vprof := profile()
			var twice [ProfileHours]float64
			for k := range vprof {
				twice[k] = 2 * vprof[k]
			}
			shared := profile()
			for hi, h := range hosts {
				b := &state[hi]
				*b = hostBuild{}
				means[hi] = [ProfileHours]float64{}
				switch r := rng.IntN(10); {
				case r < 4: // empty
				case r < 5: // full
					b.placed, b.num = h.MaxVMs, h.MaxVMs
				default:
					b.placed = 1 + rng.IntN(h.MaxVMs-1)
					b.num = b.placed
					switch rng.IntN(3) {
					case 0:
						means[hi] = twice
					case 1:
						means[hi] = shared
					default:
						means[hi] = profile()
					}
				}
				b.mem = min(h.MemGB, 4*b.num+rng.IntN(8))
				b.cpu = rng.Float64() * float64(h.VCPUs)
			}
			demand := rng.Float64() * 8
			for _, relaxed := range []bool{false, true} {
				got := p.pick(hosts, v, &vprof, demand, relaxed)
				want := linearPick(p, hosts, v, &vprof, demand, relaxed)
				if got != want {
					t.Fatalf("trial %d query %d relaxed=%v: pick chose %d, linear reference %d", trial, q, relaxed, got, want)
				}
				switch {
				case got < 0:
					stats.none++
				case hosts[got] == v.Host() && state[got].placed == 0:
					stats.curEmptyWins++
				case hosts[got] == v.Host():
					stats.curPartWins++
				case state[got].placed == 0:
					stats.emptyWins++
				default:
					stats.partWins++
				}
				if relaxed && got >= 0 && p.pick(hosts, v, &vprof, demand, false) < 0 {
					stats.relaxed++
				}
			}
			if v.Host() != nil {
				c.Remove(v)
			}
		}
	}
	if stats.emptyWins < 100 || stats.partWins < 100 || stats.curEmptyWins < 100 || stats.curPartWins < 100 ||
		stats.relaxed < 50 || stats.none < 10 {
		t.Fatalf("cases not exercised: %+v", stats)
	}
	t.Logf("%+v", stats)
}

// heteroFleet builds a fleet of hetero-fleet-year's host classes with
// about three VMs per host: office-hours, backup and mostly-used
// workloads with per-VM phase shifts.
func heteroFleet(nHosts int) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < nHosts; i++ {
		heteroHost(c, i)
	}
	for i := 0; i < 3*nHosts; i++ {
		var g trace.Generator
		mem := 4
		switch i % 4 {
		case 0, 1:
			g = trace.Variant(trace.RealTrace(1+i%5), uint64(i), i%7)
		case 2:
			g = trace.Variant(trace.DailyBackup(0.6), uint64(i), 2*(i%5))
		default:
			g, mem = trace.Variant(trace.LLMU(uint64(i)), uint64(i), 5*(i%3)), 6
		}
		v := cluster.NewVM(i, fmt.Sprint("v", i), cluster.KindLLMI, mem, 2, g)
		c.AddVM(v)
		_ = c.Place(v, c.Hosts()[i%nHosts])
	}
	return c
}

// TestFullRelocationMatchesLinearReference runs drowsy-full rounds with
// pick and with the linear reference side by side on twin fleets for a
// week of hourly rounds, observing the same activity, and requires
// identical placements, migration counts and IP evaluation counts
// after every round.
func TestFullRelocationMatchesLinearReference(t *testing.T) {
	const hosts = 30
	a, b := heteroFleet(hosts), heteroFleet(hosts)
	p := New(Options{FullRelocation: true})
	ref := New(Options{FullRelocation: true})
	for hr := simtime.Hour(0); hr < 7*24; hr++ {
		for _, c := range []*cluster.Cluster{a, b} {
			for _, v := range c.VMs() {
				v.Model.Observe(simtime.Decompose(hr), v.Activity(hr))
			}
		}
		p.Rebalance(a, hr+1)
		ref.fullRelocate(b, hr+1, linearPick)
		if got, want := a.Assignments(), b.Assignments(); !slices.Equal(got, want) {
			t.Fatalf("hour %d: placements diverge from the linear reference", hr+1)
		}
		if a.Migrations() != b.Migrations() || p.IPEvaluations() != ref.IPEvaluations() {
			t.Fatalf("hour %d: migrations %d vs %d, IP evaluations %d vs %d",
				hr+1, a.Migrations(), b.Migrations(), p.IPEvaluations(), ref.IPEvaluations())
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Migrations() < hosts {
		t.Fatalf("only %d migrations: the week did not exercise the round", a.Migrations())
	}
	t.Logf("%d migrations", a.Migrations())
}
