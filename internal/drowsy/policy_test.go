package drowsy

import (
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// train feeds h hours of each VM's own trace into its idleness model.
func train(vms []*cluster.VM, hours int) {
	for _, v := range vms {
		for h := simtime.Hour(0); h < simtime.Hour(hours); h++ {
			v.Model.Observe(simtime.Decompose(h), v.Activity(h))
		}
	}
}

// utilAt is every host's utilization at hr by position, the table the
// simulation runtime hands to RecordHour.
func utilAt(c *cluster.Cluster, hr simtime.Hour) []float64 {
	util := make([]float64, len(c.Hosts()))
	for i, h := range c.Hosts() {
		util[i] = h.Utilization(hr)
	}
	return util
}

func buildCluster(nHosts, slots int) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < nHosts; i++ {
		c.AddHost(cluster.NewHost(i, "h", 16, 8, slots))
	}
	return c
}

func TestPlaceNewPrefersClosestIP(t *testing.T) {
	c := buildCluster(2, 2)
	idleResident := cluster.NewVM(0, "idle", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.4))
	busyResident := cluster.NewVM(1, "busy", cluster.KindLLMU, 6, 2, trace.LLMU(1))
	c.AddVM(idleResident)
	c.AddVM(busyResident)
	_ = c.Place(idleResident, c.Hosts()[0])
	_ = c.Place(busyResident, c.Hosts()[1])
	newIdle := cluster.NewVM(2, "new-idle", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.4))
	c.AddVM(newIdle)
	train([]*cluster.VM{idleResident, busyResident, newIdle}, 14*24)

	p := New(Options{})
	hr := simtime.Hour(15 * 24)
	dst, err := p.PlaceNew(c, newIdle, hr)
	if err != nil {
		t.Fatal(err)
	}
	if dst != c.Hosts()[0] {
		t.Fatalf("idle VM placed with the busy resident (host %d)", dst.ID)
	}
}

func TestPlaceNewNoCapacity(t *testing.T) {
	c := buildCluster(1, 1)
	r := cluster.NewVM(0, "r", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.4))
	c.AddVM(r)
	_ = c.Place(r, c.Hosts()[0])
	v := cluster.NewVM(1, "v", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.4))
	c.AddVM(v)
	if _, err := New(Options{}).PlaceNew(c, v, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestSelectionOrderMostMisplacedFirst(t *testing.T) {
	c := buildCluster(1, 4)
	h := c.Hosts()[0]
	idle1 := cluster.NewVM(0, "i1", cluster.KindLLMI, 2, 2, trace.DailyBackup(0.3))
	idle2 := cluster.NewVM(1, "i2", cluster.KindLLMI, 2, 2, trace.DailyBackup(0.3))
	busy := cluster.NewVM(2, "b", cluster.KindLLMU, 2, 2, trace.LLMU(5))
	for _, v := range []*cluster.VM{idle1, idle2, busy} {
		c.AddVM(v)
		_ = c.Place(v, h)
	}
	train(c.VMs(), 14*24)
	p := New(Options{})
	order := p.selectionOrder(h, 15*24)
	if order[0] != busy {
		t.Fatalf("first eviction candidate = %s; the busy VM is furthest from the host IP", order[0].Name)
	}
}

func TestSelectionOrderTieBreaksByMMT(t *testing.T) {
	c := buildCluster(1, 4)
	h := c.Hosts()[0]
	// Same trace (same IP), different memory: tolerance makes the
	// distances equal, so smallest memory first.
	big := cluster.NewVM(0, "big", cluster.KindLLMI, 8, 2, trace.DailyBackup(0.3))
	small := cluster.NewVM(1, "small", cluster.KindLLMI, 2, 2, trace.DailyBackup(0.3))
	for _, v := range []*cluster.VM{big, small} {
		c.AddVM(v)
		_ = c.Place(v, h)
	}
	train(c.VMs(), 7*24)
	order := New(Options{}).selectionOrder(h, 8*24)
	if order[0] != small {
		t.Fatal("equal IP distance should fall back to minimum migration time")
	}
}

func TestOpportunisticNarrowsIPRange(t *testing.T) {
	c := buildCluster(2, 2)
	h0, h1 := c.Hosts()[0], c.Hosts()[1]
	// Host 0: an idle VM and a busy VM — a wide IP range. Host 1: one
	// busy VM with a free slot.
	idle := cluster.NewVM(0, "idle", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.3))
	busy1 := cluster.NewVM(1, "busy1", cluster.KindLLMU, 6, 2, trace.LLMU(1))
	busy2 := cluster.NewVM(2, "busy2", cluster.KindLLMU, 6, 2, trace.LLMU(2))
	for _, v := range []*cluster.VM{idle, busy1, busy2} {
		c.AddVM(v)
	}
	_ = c.Place(idle, h0)
	_ = c.Place(busy1, h0)
	_ = c.Place(busy2, h1)
	train(c.VMs(), 14*24)
	hr := simtime.Hour(15 * 24)
	if h0.IPRange(hr) <= IPRangeThreshold {
		t.Fatalf("test premise broken: range %v <= threshold %v", h0.IPRange(hr), IPRangeThreshold)
	}
	p := New(Options{})
	p.opportunistic(p.round(c, hr))
	if h0.IPRange(hr) > IPRangeThreshold {
		t.Fatalf("opportunistic pass left range %v > %v", h0.IPRange(hr), IPRangeThreshold)
	}
	// The two busy VMs should now share a host.
	if busy1.Host() != busy2.Host() {
		t.Fatal("busy VMs should be colocated after narrowing")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFullRelocationPairsMatchingTraces(t *testing.T) {
	// The testbed shape: 4 hosts × 2 slots, 8 VMs — 2 LLMU and 6 LLMI
	// with V3/V4 sharing one workload. After training, full relocation
	// must colocate the LLMU pair and the V3/V4 pair.
	c := buildCluster(4, 2)
	// Matching traces deliberately NOT adjacent in ID order, so the
	// pairing cannot happen by accident of deterministic tie-breaking:
	// V3 matches V6, V4 matches V7, V5 matches V8.
	specs := []struct {
		name string
		kind cluster.Kind
		gen  trace.Generator
	}{
		{"V1", cluster.KindLLMU, trace.LLMU(1)},
		{"V2", cluster.KindLLMU, trace.LLMU(2)},
		{"V3", cluster.KindLLMI, trace.RealTrace(1)},
		{"V4", cluster.KindLLMI, trace.RealTrace(3)},
		{"V5", cluster.KindLLMI, trace.RealTrace(5)},
		{"V6", cluster.KindLLMI, trace.RealTrace(1)},
		{"V7", cluster.KindLLMI, trace.RealTrace(3)},
		{"V8", cluster.KindLLMI, trace.RealTrace(5)},
	}
	var vms []*cluster.VM
	for i, s := range specs {
		v := cluster.NewVM(i, s.name, s.kind, 6, 2, s.gen)
		vms = append(vms, v)
		c.AddVM(v)
	}
	// Deliberately mismatched initial placement.
	order := []int{0, 2, 1, 4, 3, 6, 5, 7}
	for slot, vi := range order {
		_ = c.Place(vms[vi], c.Hosts()[slot/2])
	}
	p := New(Options{FullRelocation: true})
	// Three weeks of hourly observation + relocation.
	for h := simtime.Hour(0); h < 21*24; h++ {
		for _, v := range vms {
			v.Model.Observe(simtime.Decompose(h), v.Activity(h))
		}
		p.Rebalance(c, h+1)
	}
	if vms[0].Host() != vms[1].Host() {
		t.Error("LLMU pair V1/V2 not colocated")
	}
	if vms[2].Host() != vms[5].Host() {
		t.Error("same-workload pair V3/V6 not colocated")
	}
	if vms[3].Host() != vms[6].Host() {
		t.Error("same-workload pair V4/V7 not colocated")
	}
	if vms[4].Host() != vms[7].Host() {
		t.Error("same-workload pair V5/V8 not colocated")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Placements must be stable: each VM migrates a handful of times,
	// not tens (the paper's Figure 2 reports ≤ 3).
	for _, v := range vms {
		if v.Migrations() > 6 {
			t.Errorf("%s migrated %d times; placement unstable", v.Name, v.Migrations())
		}
	}
}

func TestRebalanceComposesNeatSteps(t *testing.T) {
	// An overloaded host must shed VMs even in Drowsy mode. 4-vCPU
	// hosts so three busy 2-vCPU VMs overload one host.
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "a", 16, 4, 0))
	c.AddHost(cluster.NewHost(1, "b", 16, 4, 0))
	var vms []*cluster.VM
	for i := 0; i < 3; i++ {
		v := cluster.NewVM(i, "u", cluster.KindLLMU, 4, 2, trace.LLMU(uint64(i)))
		vms = append(vms, v)
		c.AddVM(v)
		_ = c.Place(v, c.Hosts()[0])
	}
	p := New(Options{})
	for hr := simtime.Hour(0); hr < 3; hr++ {
		p.RecordHour(c, hr, utilAt(c, hr))
	}
	p.Rebalance(c, 3)
	if c.Hosts()[1].NumVMs() == 0 {
		t.Fatal("overload relief did not move any VM")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIPEvaluationsLinearInVMs(t *testing.T) {
	// §VII: Drowsy-DC's pass is O(n). Full relocation over n VMs and a
	// fixed host count must evaluate IPs O(n·hosts), not O(n²).
	run := func(n int) uint64 {
		c := buildCluster(8, 0)
		for i := 0; i < n; i++ {
			v := cluster.NewVM(i, "v", cluster.KindLLMI, 1, 1, trace.RealTrace(1+i%5))
			c.AddVM(v)
			_ = c.Place(v, c.Hosts()[i%8])
		}
		p := New(Options{FullRelocation: true})
		p.Rebalance(c, 24)
		return p.IPEvaluations()
	}
	small, large := run(50), run(400)
	// 8x the VMs should cost ~8x the evaluations; allow 2x slack but
	// reject anything resembling quadratic growth (64x).
	if large > small*16 {
		t.Fatalf("IP evaluations grew superlinearly: %d -> %d", small, large)
	}
}

func TestBoundaryVMs(t *testing.T) {
	c := buildCluster(1, 3)
	h := c.Hosts()[0]
	idle := cluster.NewVM(0, "idle", cluster.KindLLMI, 2, 2, trace.DailyBackup(0.4))
	busy := cluster.NewVM(1, "busy", cluster.KindLLMU, 2, 2, trace.LLMU(1))
	mid := cluster.NewVM(2, "mid", cluster.KindLLMI, 2, 2, trace.RealTrace(1))
	for _, v := range []*cluster.VM{idle, busy, mid} {
		c.AddVM(v)
		_ = c.Place(v, h)
	}
	train(c.VMs(), 14*24)
	p := New(Options{})
	hr := simtime.Hour(15 * 24)
	bounds := p.boundaryVMs(h, hr)
	if len(bounds) != 2 {
		t.Fatalf("boundaries = %d VMs, want 2", len(bounds))
	}
	if bounds[0] != busy || bounds[1] != idle {
		t.Fatalf("boundaries = %s,%s; want busy,idle", bounds[0].Name, bounds[1].Name)
	}
	if got := p.boundaryVMs(cluster.NewHost(9, "e", 16, 8, 2), hr); got != nil {
		t.Fatal("empty host has no boundaries")
	}
	// A single-VM host returns that one VM.
	single := buildCluster(1, 2)
	v := cluster.NewVM(9, "v", cluster.KindLLMI, 2, 2, trace.DailyBackup(0.4))
	single.AddVM(v)
	_ = single.Place(v, single.Hosts()[0])
	if got := p.boundaryVMs(single.Hosts()[0], hr); len(got) != 1 || got[0] != v {
		t.Fatal("single-VM boundary wrong")
	}
}

func TestNames(t *testing.T) {
	if New(Options{}).Name() != "drowsy" {
		t.Fatal("name")
	}
	if New(Options{FullRelocation: true}).Name() != "drowsy-full" {
		t.Fatal("full-relocation name")
	}
}
