package drowsy

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/neat"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// linearPolicy is the production round with a linear destination
// search: every search scans all hosts in cluster order and keeps
// strict improvements. It is the reference the indexed round must
// reproduce exactly — same migrations in the same order, same IP
// evaluation count.
type linearPolicy struct {
	neat   *neat.Policy
	evals  uint64
	probes uint64 // hosts scanned: at least every host per search
}

func (p *linearPolicy) vmIP(v *cluster.VM, hr simtime.Hour) float64 {
	p.evals++
	return v.IP(hr)
}

func (p *linearPolicy) rebalance(c *cluster.Cluster, hr simtime.Hour) {
	p.relieveOverloaded(c, hr)
	p.evacuateUnderloaded(c, hr)
	p.opportunistic(c, hr)
}

func (p *linearPolicy) relieveOverloaded(c *cluster.Cluster, hr simtime.Hour) {
	for _, h := range c.Hosts() {
		if !p.neat.Overloaded(h) {
			continue
		}
		for _, v := range p.selectionOrder(h, hr) {
			if h.Utilization(hr) <= neat.OverloadThreshold {
				break
			}
			dst, err := p.placeClosestIP(c, v, hr, h)
			if err != nil {
				break
			}
			_ = c.Migrate(v, dst)
		}
	}
}

func (p *linearPolicy) selectionOrder(h *cluster.Host, hr simtime.Hour) []*cluster.VM {
	hip := h.IP(hr)
	vms := append([]*cluster.VM(nil), h.VMs()...)
	dist := make(map[int]float64, len(vms))
	for _, v := range vms {
		dist[v.ID] = math.Abs(p.vmIP(v, hr) - hip)
	}
	sort.SliceStable(vms, func(i, j int) bool {
		di, dj := dist[vms[i].ID], dist[vms[j].ID]
		if math.Abs(di-dj) > DistanceTolerance {
			return di > dj
		}
		if vms[i].MemGB != vms[j].MemGB {
			return vms[i].MemGB < vms[j].MemGB
		}
		return vms[i].ID < vms[j].ID
	})
	return vms
}

func (p *linearPolicy) placeClosestIP(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour, avoid *cluster.Host) (*cluster.Host, error) {
	vip := p.vmIP(v, hr)
	best := linearClosestIP(c, v, vip, hr, avoid)
	p.probes += uint64(len(c.Hosts())) // at least one full scan
	if best == nil {
		return nil, fmt.Errorf("no destination for VM %s", v.Name)
	}
	return best, nil
}

// linearClosestIP is the destination scan itself: the suitable host
// with the IP closest to vip under Neat's CPU budget, relaxed when none
// fits, first in cluster order among equals.
func linearClosestIP(c *cluster.Cluster, v *cluster.VM, vip float64, hr simtime.Hour, avoid *cluster.Host) *cluster.Host {
	demand := v.Activity(hr) * float64(v.VCPUs)
	pick := func(relaxed bool) *cluster.Host {
		var best *cluster.Host
		bestDist := math.Inf(1)
		for _, h := range c.Hosts() {
			if h == avoid || h == v.Host() || !h.CanHost(v) {
				continue
			}
			if !relaxed && h.Utilization(hr)+demand/float64(h.VCPUs) > neat.OverloadThreshold {
				continue
			}
			if d := math.Abs(h.IP(hr) - vip); d < bestDist {
				bestDist = d
				best = h
			}
		}
		return best
	}
	if best := pick(false); best != nil {
		return best
	}
	return pick(true)
}

func (p *linearPolicy) evacuateUnderloaded(c *cluster.Cluster, hr simtime.Hour) {
	hosts := append([]*cluster.Host(nil), c.Hosts()...)
	sort.SliceStable(hosts, func(i, j int) bool {
		return hosts[i].Utilization(hr) < hosts[j].Utilization(hr)
	})
	for _, h := range hosts {
		if h.NumVMs() == 0 || h.Utilization(hr) >= neat.UnderloadThreshold {
			continue
		}
		for _, v := range cluster.SortVMsByMemDesc(h.VMs()) {
			dst, err := p.placeClosestIP(c, v, hr, h)
			if err != nil {
				break
			}
			if err := c.Migrate(v, dst); err != nil {
				break
			}
		}
	}
}

func (p *linearPolicy) opportunistic(c *cluster.Cluster, hr simtime.Hour) {
	for _, h := range c.Hosts() {
		for iter := 0; iter < len(h.VMs()); iter++ {
			if h.IPRange(hr) <= IPRangeThreshold {
				break
			}
			var bestVM *cluster.VM
			var bestDst *cluster.Host
			bestGain := 0.0
			for _, v := range p.boundaryVMs(h, hr) {
				dst, err := p.placeClosestIP(c, v, hr, h)
				if err != nil {
					continue
				}
				vip := p.vmIP(v, hr)
				gain := math.Abs(h.IP(hr)-vip) - math.Abs(dst.IP(hr)-vip)
				if gain > bestGain {
					bestGain = gain
					bestVM, bestDst = v, dst
				}
			}
			if bestVM == nil {
				break
			}
			if err := c.Migrate(bestVM, bestDst); err != nil {
				break
			}
		}
	}
}

func (p *linearPolicy) boundaryVMs(h *cluster.Host, hr simtime.Hour) []*cluster.VM {
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

// setIP makes a VM's IP exactly ip at every hour: uniform weights of ¼
// times a day-scale score of 4·ip, all other scales undetermined.
func setIP(v *cluster.VM, ip float64) {
	for h := range v.Model.SId {
		v.Model.SId[h] = 4 * ip
	}
}

// tieFleet builds a random cluster whose host IPs collide often: VM IPs
// come from a small dyadic set (so hosts with the same mix of VMs tie,
// empty hosts tie at 0, and points halfway between two levels are
// equidistant from both), with an occasional arbitrary or NaN IP. Slot
// limits, memory and constant activity levels make every feasibility
// filter bite.
func tieFleet(rng *rand.Rand) *cluster.Cluster {
	levels := []float64{-0.75, -0.5, -0.25, -0.125, 0, 0.125, 0.25, 0.5, 0.75}
	c := cluster.New()
	nHosts := 1 + rng.IntN(40)
	for i := 0; i < nHosts; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprint("h", i),
			[]int{8, 16, 32}[rng.IntN(3)], []int{2, 4, 8}[rng.IntN(3)], []int{0, 2, 3, 4}[rng.IntN(4)]))
	}
	nVMs := rng.IntN(4*nHosts + 1)
	for i := 0; i < nVMs; i++ {
		act := []float64{0, 0.3, 0.9}[rng.IntN(3)]
		v := cluster.NewVM(i, fmt.Sprint("v", i), cluster.KindLLMI, []int{2, 4, 8}[rng.IntN(3)], 1+rng.IntN(4),
			trace.Generator{Name: "const", Fn: trace.Const(act)})
		switch r := rng.IntN(50); {
		case r == 0:
			setIP(v, math.NaN())
		case r < 5:
			setIP(v, rng.Float64()*2-1)
		default:
			setIP(v, levels[rng.IntN(len(levels))])
		}
		c.AddVM(v)
		if h := c.Hosts()[rng.IntN(nHosts)]; rng.IntN(5) > 0 && h.CanHost(v) {
			_ = c.Place(v, h)
		}
	}
	return c
}

func hostIdx(c *cluster.Cluster, h *cluster.Host) int {
	return slices.Index(c.Hosts(), h)
}

// TestClosestIPMatchesLinearScan drives the indexed search and the
// linear scan with the same queries on tie-heavy random fleets, before
// and after migrations through the index, and requires the same host
// every time. After each migration the incrementally maintained order
// must equal a fresh build.
func TestClosestIPMatchesLinearScan(t *testing.T) {
	const hr = simtime.Hour(100)
	rng := rand.New(rand.NewPCG(7, 11))
	p := New(Options{})
	queries := 0
	for trial := 0; trial < 400; trial++ {
		c := tieFleet(rng)
		vms, hosts := c.VMs(), c.Hosts()
		if len(vms) == 0 {
			continue
		}
		x := p.round(c, hr)
		check := func() {
			for q := 0; q < 20; q++ {
				v := vms[rng.IntN(len(vms))]
				var avoid *cluster.Host
				switch rng.IntN(3) {
				case 0:
					avoid = v.Host()
				case 1:
					avoid = hosts[rng.IntN(len(hosts))]
				}
				want := linearClosestIP(c, v, v.IP(hr), hr, avoid)
				var got *cluster.Host
				if i := p.placeClosestIP(x, v, avoid); i >= 0 {
					got = hosts[i]
				}
				if got != want {
					t.Fatalf("trial %d: VM %s (IP %v) avoid %v: indexed search chose %v, linear scan %v",
						trial, v.Name, v.IP(hr), avoid, got, want)
				}
				queries++
			}
		}
		check()
		for m := 0; m < 10; m++ {
			v := vms[rng.IntN(len(vms))]
			dst := hosts[rng.IntN(len(hosts))]
			if v.Host() == nil || v.Host() == dst || !dst.CanHost(v) {
				continue
			}
			if err := x.migrate(v, hostIdx(c, v.Host()), hostIdx(c, dst)); err != nil {
				t.Fatal(err)
			}
			var fresh hostIndex
			fresh.reset(c, hr)
			if !slices.Equal(x.order, fresh.order) || !slices.Equal(x.listed, fresh.listed) {
				t.Fatalf("trial %d: order after migration %v, fresh build %v", trial, x.order, fresh.order)
			}
			check()
		}
	}
	if queries < 10000 {
		t.Fatalf("only %d queries ran", queries)
	}
}

// packedFleet builds a fleet shaped like the diurnal-office family:
// 8-slot hosts holding about five VMs each, office-hours, backup and
// mostly-used workloads with per-VM phase shifts.
func packedFleet(nHosts int) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < nHosts; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprint("h", i), 64, 16, 8))
	}
	for i := 0; i < 5*nHosts; i++ {
		var g trace.Generator
		switch i % 5 {
		case 0, 1, 2:
			g = trace.Variant(trace.RealTrace(1+i%5), uint64(i), i%7)
		case 3:
			g = trace.Variant(trace.DailyBackup(0.6), uint64(i), 2*(i%5))
		default:
			g = trace.Variant(trace.LLMU(uint64(i)), uint64(i), 3*(i%3))
		}
		v := cluster.NewVM(i, fmt.Sprint("v", i), cluster.KindLLMI, 4, 2, g)
		c.AddVM(v)
		_ = c.Place(v, c.Hosts()[i%nHosts])
	}
	return c
}

// TestProductionRebalanceMatchesLinearReference runs the indexed
// production round and the linear reference side by side on twin fleets
// for a week of hourly rounds, observing the same activity, and
// requires identical placements, migration counts and IP evaluation
// counts after every round.
func TestProductionRebalanceMatchesLinearReference(t *testing.T) {
	const hosts = 48
	a, b := packedFleet(hosts), packedFleet(hosts)
	p := New(Options{})
	ref := &linearPolicy{neat: neat.New()}
	for hr := simtime.Hour(0); hr < 7*24; hr++ {
		for _, c := range []*cluster.Cluster{a, b} {
			for _, v := range c.VMs() {
				v.Model.Observe(simtime.Decompose(hr), v.Activity(hr))
			}
		}
		p.RecordHour(a, hr, utilAt(a, hr))
		ref.neat.RecordHour(b, hr, utilAt(b, hr))
		p.Rebalance(a, hr+1)
		ref.rebalance(b, hr+1)
		if got, want := a.Assignments(), b.Assignments(); !slices.Equal(got, want) {
			t.Fatalf("hour %d: placements diverge from the linear reference", hr+1)
		}
		if a.Migrations() != b.Migrations() || p.IPEvaluations() != ref.evals {
			t.Fatalf("hour %d: migrations %d vs %d, IP evaluations %d vs %d",
				hr+1, a.Migrations(), b.Migrations(), p.IPEvaluations(), ref.evals)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Migrations() < 10*hosts {
		t.Fatalf("only %d migrations: the week did not exercise the round", a.Migrations())
	}
	if idx := p.scratch.index.probes; idx*4 > ref.probes {
		t.Errorf("indexed search tested %d hosts, linear scans %d: expected at least 4x fewer", idx, ref.probes)
	}
	t.Logf("%d migrations; hosts tested: indexed %d, linear %d", a.Migrations(), p.scratch.index.probes, ref.probes)
}

// BenchmarkProductionRound times one production consolidation round on
// a packed fleet trained for two days, with the indexed search and with
// the linear reference. Each iteration restores the same starting
// placement outside the timer.
func BenchmarkProductionRound(b *testing.B) {
	for _, hosts := range []int{256, 1024} {
		c := packedFleet(hosts)
		ref := &linearPolicy{neat: neat.New()}
		p := New(Options{})
		const trained = 48
		for hr := simtime.Hour(0); hr < trained; hr++ {
			for _, v := range c.VMs() {
				v.Model.Observe(simtime.Decompose(hr), v.Activity(hr))
			}
			util := utilAt(c, hr)
			p.RecordHour(c, hr, util)
			ref.neat.RecordHour(c, hr, util)
		}
		vms := append([]*cluster.VM(nil), c.VMs()...)
		start := c.Assignments()
		restore := func() {
			c.RestorePopulation(vms)
			for i, v := range vms {
				_ = c.Place(v, c.Hosts()[start[i]])
			}
		}
		rounds := map[string]func(){
			"indexed": func() { p.Rebalance(c, trained) },
			"linear":  func() { ref.rebalance(c, trained) },
		}
		for _, name := range []string{"indexed", "linear"} {
			b.Run(fmt.Sprintf("%s/hosts-%d", name, hosts), func(b *testing.B) {
				probes0 := p.scratch.index.probes + ref.probes
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					restore()
					b.StartTimer()
					rounds[name]()
				}
				b.ReportMetric(float64(p.scratch.index.probes+ref.probes-probes0)/float64(b.N), "hosts-tested/op")
			})
		}
	}
}
