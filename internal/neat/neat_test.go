package neat

import (
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// utilAt is every host's utilization at hr by position, the table the
// simulation runtime hands to RecordHour.
func utilAt(c *cluster.Cluster, hr simtime.Hour) []float64 {
	util := make([]float64, len(c.Hosts()))
	for i, h := range c.Hosts() {
		util[i] = h.Utilization(hr)
	}
	return util
}

// TestTHRDetector: Overloaded reads a copy of the last recorded hour
// only, and fires strictly above OverloadThreshold; a host with no
// recorded hour is not overloaded.
func TestTHRDetector(t *testing.T) {
	c := cluster.New()
	for i := 0; i < 3; i++ {
		c.AddHost(cluster.NewHost(i, "h", 16, 8, 0))
	}
	hosts := c.Hosts()
	p := New()
	if p.Overloaded(hosts[0]) {
		t.Fatal("a host with no recorded hour cannot be overloaded")
	}
	util := []float64{0.85, 0.79, OverloadThreshold}
	p.RecordHour(c, 0, util)
	if !p.Overloaded(hosts[0]) || p.Overloaded(hosts[1]) || p.Overloaded(hosts[2]) {
		t.Fatal("only the host above the threshold is overloaded")
	}
	util[0], util[1] = 0.5, 0.9 // the runtime reuses its table
	if !p.Overloaded(hosts[0]) || p.Overloaded(hosts[1]) {
		t.Fatal("Overloaded reads the caller's table, not its copy")
	}
	p.RecordHour(c, 1, util)
	if p.Overloaded(hosts[0]) || !p.Overloaded(hosts[1]) {
		t.Fatal("only the last recorded hour counts")
	}
}

func testClusterWith(vmMems []int) (*cluster.Cluster, []*cluster.VM) {
	c := cluster.New()
	for i := 0; i < 4; i++ {
		c.AddHost(cluster.NewHost(i, "h", 16, 8, 0))
	}
	vms := make([]*cluster.VM, len(vmMems))
	for i, mem := range vmMems {
		vms[i] = cluster.NewVM(i, "v", cluster.KindLLMI, mem, 2, trace.DailyBackup(0.5))
		c.AddVM(vms[i])
	}
	return c, vms
}

func TestMMTOrder(t *testing.T) {
	c, vms := testClusterWith([]int{8, 2, 4})
	h := c.Hosts()[0]
	for _, v := range vms {
		if err := c.Place(v, h); err != nil {
			t.Fatal(err)
		}
	}
	order := mmt(h)
	if order[0].MemGB != 2 || order[1].MemGB != 4 || order[2].MemGB != 8 {
		t.Fatalf("MMT order wrong: %d %d %d", order[0].MemGB, order[1].MemGB, order[2].MemGB)
	}
}

func TestPABFDPacksBestFit(t *testing.T) {
	c, vms := testClusterWith([]int{4, 4, 4})
	h0, h1 := c.Hosts()[0], c.Hosts()[1]
	_ = c.Place(vms[0], h0)
	_ = c.Place(vms[1], h1)
	_ = c.Place(vms[2], h1) // h1 now busier at the backup hour
	v := cluster.NewVM(9, "new", cluster.KindLLMI, 2, 2, trace.DailyBackup(0.5))
	c.AddVM(v)
	dst, err := New().PlaceNew(c, v, 2 /* the backup hour: hosts show activity */)
	if err != nil {
		t.Fatal(err)
	}
	if dst != h1 {
		t.Fatalf("PABFD chose %s, want the busiest feasible host", dst.Name)
	}
}

func TestPABFDRespectsThresholdThenRelaxes(t *testing.T) {
	c := cluster.New()
	h := cluster.NewHost(0, "h", 16, 2, 0)
	c.AddHost(h)
	busy := cluster.NewVM(0, "busy", cluster.KindLLMU, 4, 2, trace.LLMU(1))
	c.AddVM(busy)
	_ = c.Place(busy, h)
	v := cluster.NewVM(1, "v", cluster.KindLLMU, 4, 2, trace.LLMU(2))
	c.AddVM(v)
	// Only host is over threshold with both VMs, but placement must
	// still succeed via the relaxed pass.
	dst, err := New().PlaceNew(c, v, 12)
	if err != nil || dst != h {
		t.Fatalf("relaxed placement failed: %v %v", dst, err)
	}
}

func TestPABFDNoCapacity(t *testing.T) {
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "h", 2, 2, 0))
	v := cluster.NewVM(0, "big", cluster.KindLLMI, 8, 2, trace.DailyBackup(0.5))
	c.AddVM(v)
	if _, err := New().PlaceNew(c, v, 0); err == nil {
		t.Fatal("expected no-capacity error")
	}
}

func TestRebalanceRelievesOverload(t *testing.T) {
	p := New()
	c := cluster.New()
	h0 := cluster.NewHost(0, "p2", 32, 4, 0)
	h1 := cluster.NewHost(1, "p3", 32, 4, 0)
	c.AddHost(h0)
	c.AddHost(h1)
	// Two heavy LLMU VMs on a 4-vCPU host: utilization ~2·0.75·2/4 ≈ 0.75-0.95.
	var vms []*cluster.VM
	for i := 0; i < 3; i++ {
		v := cluster.NewVM(i, "u", cluster.KindLLMU, 4, 2, trace.LLMU(uint64(i)))
		vms = append(vms, v)
		c.AddVM(v)
		_ = c.Place(v, h0)
	}
	// Feed history so THR sees the overload.
	for hr := simtime.Hour(0); hr < 3; hr++ {
		p.RecordHour(c, hr, utilAt(c, hr))
	}
	if !p.Overloaded(h0) {
		t.Fatalf("test premise: host should look overloaded, last hour %v", h0.Utilization(2))
	}
	p.Rebalance(c, 3)
	if h0.Utilization(3) > h1.Utilization(3)+1.0 {
		t.Fatalf("rebalance did not spread load: %v vs %v", h0.Utilization(3), h1.Utilization(3))
	}
	if c.Migrations() == 0 {
		t.Fatal("no migrations happened")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceEvacuatesUnderloadedHost(t *testing.T) {
	p := New()
	c := cluster.New()
	h0 := cluster.NewHost(0, "a", 32, 8, 0)
	h1 := cluster.NewHost(1, "b", 32, 8, 0)
	c.AddHost(h0)
	c.AddHost(h1)
	// One light VM on each host: both underloaded; the emptier one
	// should end up empty.
	v0 := cluster.NewVM(0, "v0", cluster.KindLLMI, 4, 2, trace.DailyBackup(0.3))
	v1 := cluster.NewVM(1, "v1", cluster.KindLLMI, 4, 2, trace.DailyBackup(0.3))
	c.AddVM(v0)
	c.AddVM(v1)
	_ = c.Place(v0, h0)
	_ = c.Place(v1, h1)
	p.RecordHour(c, 0, utilAt(c, 0))
	p.Rebalance(c, 1)
	empty := 0
	for _, h := range c.Hosts() {
		if h.NumVMs() == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Fatalf("expected one evacuated host, got %d empty", empty)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationStopsAtStrandedVM: an underloaded host's VMs move
// biggest first, and the first with no destination ends its
// evacuation, so a smaller VM that would fit elsewhere stays put.
func TestEvacuationStopsAtStrandedVM(t *testing.T) {
	c := cluster.New()
	h0 := cluster.NewHost(0, "a", 16, 8, 0)
	h1 := cluster.NewHost(1, "b", 8, 8, 0)
	c.AddHost(h0)
	c.AddHost(h1)
	big := cluster.NewVM(0, "big", cluster.KindLLMI, 12, 2, trace.DailyBackup(0.3))
	small := cluster.NewVM(1, "small", cluster.KindLLMI, 2, 2, trace.DailyBackup(0.3))
	other := cluster.NewVM(2, "other", cluster.KindLLMI, 4, 2, trace.DailyBackup(0.3))
	for _, v := range []*cluster.VM{big, small, other} {
		c.AddVM(v)
	}
	_ = c.Place(big, h0)
	_ = c.Place(small, h0)
	_ = c.Place(other, h1)
	New().Rebalance(c, 12)
	if !c.Hosts()[1].CanHost(small) {
		t.Fatal("test premise: the small VM fits on the other host")
	}
	if small.Host() != h0 || c.Migrations() != 0 {
		t.Fatalf("small VM on %s after %d migrations; the stranded big VM should end the evacuation",
			small.Host().Name, c.Migrations())
	}
}

// TestRecordHourSteadyStateAllocs: once the table exists, recording
// hours allocates nothing.
func TestRecordHourSteadyStateAllocs(t *testing.T) {
	c := cluster.New()
	for i := 0; i < 3; i++ { // empty hosts: Utilization reads no trace
		c.AddHost(cluster.NewHost(i, "h", 16, 8, 0))
	}
	p := New()
	hr := simtime.Hour(0)
	util := utilAt(c, hr) // all zero, every hour
	p.RecordHour(c, hr, util)
	const hours = 4 * 7 * 24
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < hours; i++ {
			hr++
			p.RecordHour(c, hr, util)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over %d recorded hours, want 0", allocs, hours)
	}
}

func TestPlaceNewUsesPABFD(t *testing.T) {
	p := New()
	c, vms := testClusterWith([]int{4})
	_ = c.Place(vms[0], c.Hosts()[2])
	v := cluster.NewVM(9, "new", cluster.KindLLMI, 4, 2, trace.DailyBackup(0.5))
	c.AddVM(v)
	dst, err := p.PlaceNew(c, v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dst != c.Hosts()[2] {
		t.Fatalf("PlaceNew chose %s; best-fit should pack onto the occupied host", dst.Name)
	}
}
