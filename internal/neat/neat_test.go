package neat

import (
	"bytes"
	"math"
	"slices"
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

func TestTHRDetector(t *testing.T) {
	d := THR{0.8}
	if d.Overloaded(nil) {
		t.Fatal("empty history cannot be overloaded")
	}
	if d.Overloaded([]float64{0.5, 0.79}) {
		t.Fatal("below threshold")
	}
	if !d.Overloaded([]float64{0.1, 0.85}) {
		t.Fatal("above threshold")
	}
}

func TestMADDetector(t *testing.T) {
	d := MAD{Safety: 2.5}
	// Short history falls back to THR.
	if !d.Overloaded([]float64{0.9}) {
		t.Fatal("short-history fallback broken")
	}
	// Mildly variable load: MAD = 0.05, threshold = 1 − 2.5·0.05 = 0.875.
	stable := make([]float64, 50)
	for i := range stable {
		stable[i] = 0.45 + 0.1*float64(i%2)
	}
	if d.Overloaded(stable) {
		t.Fatal("load well under the adaptive threshold should not be overloaded")
	}
	spike := append(append([]float64(nil), stable...), 0.9)
	if !d.Overloaded(spike) {
		t.Fatal("spike past the adaptive threshold should trip")
	}
}

func TestIQRDetector(t *testing.T) {
	d := IQR{Safety: 1.5}
	var hist []float64
	for i := 0; i < 50; i++ {
		hist = append(hist, 0.2+0.4*float64(i%2)) // alternating 0.2/0.6: IQR 0.4
	}
	// Threshold = 1 − 1.5·0.4 = 0.4; latest 0.6 > 0.4 → overloaded.
	if !d.Overloaded(hist) {
		t.Fatal("variable load should reserve headroom")
	}
	calm := make([]float64, 50)
	for i := range calm {
		calm[i] = 0.3
	}
	if d.Overloaded(calm) {
		t.Fatal("calm load under threshold")
	}
}

func TestLRDetector(t *testing.T) {
	d := LR{Safety: 1.2, Window: 10}
	// Rising trend: 0.0, 0.1, ... 0.9 → prediction 1.0, inflated 1.2 → overload.
	var rising []float64
	for i := 0; i < 10; i++ {
		rising = append(rising, float64(i)*0.1)
	}
	if !d.Overloaded(rising) {
		t.Fatal("rising trend should predict overload")
	}
	flat := make([]float64, 10)
	for i := range flat {
		flat[i] = 0.3
	}
	if d.Overloaded(flat) {
		t.Fatal("flat load should not predict overload")
	}
}

func TestDetectorNames(t *testing.T) {
	dets := []OverloadDetector{THR{}, MAD{}, IQR{}, LR{}}
	want := []string{"thr", "mad", "iqr", "lr"}
	for i, d := range dets {
		if d.Name() != want[i] {
			t.Errorf("detector %d name %q, want %q", i, d.Name(), want[i])
		}
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
	order := MMT{}.Order(h, 0)
	if order[0].MemGB != 2 || order[1].MemGB != 4 || order[2].MemGB != 8 {
		t.Fatalf("MMT order wrong: %d %d %d", order[0].MemGB, order[1].MemGB, order[2].MemGB)
	}
}

func TestRSDeterministic(t *testing.T) {
	c, vms := testClusterWith([]int{1, 1, 1, 1, 1})
	h := c.Hosts()[0]
	for _, v := range vms {
		_ = c.Place(v, h)
	}
	a := RS{Seed: 42}.Order(h, 5)
	b := RS{Seed: 42}.Order(h, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RS must be deterministic for the same (seed, host, hour)")
		}
	}
	if len(a) != 5 {
		t.Fatalf("lost VMs: %d", len(a))
	}
}

func TestMCPrefersCorrelatedVM(t *testing.T) {
	c := cluster.New()
	h := cluster.NewHost(0, "h", 32, 8, 0)
	c.AddHost(h)
	// Two VMs with identical business-hours activity and one backup VM
	// active at night: the business VMs correlate with the host total.
	day1 := cluster.NewVM(0, "day1", cluster.KindLLMI, 4, 2, trace.RealTrace(1))
	day2 := cluster.NewVM(1, "day2", cluster.KindLLMI, 4, 2, trace.RealTrace(1))
	night := cluster.NewVM(2, "night", cluster.KindLLMI, 4, 2, trace.DailyBackup(0.5))
	for _, v := range []*cluster.VM{day1, day2, night} {
		c.AddVM(v)
		if err := c.Place(v, h); err != nil {
			t.Fatal(err)
		}
	}
	order := MC{Window: 72}.Order(h, 96)
	if order[0].ID == 2 {
		t.Fatal("MC should evict a correlated business VM before the anti-correlated backup VM")
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
	dst, err := New(Options{}).PlaceNew(c, v, 2 /* the backup hour: hosts show activity */)
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
	dst, err := New(Options{}).PlaceNew(c, v, 12)
	if err != nil || dst != h {
		t.Fatalf("relaxed placement failed: %v %v", dst, err)
	}
}

func TestPABFDNoCapacity(t *testing.T) {
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "h", 2, 2, 0))
	v := cluster.NewVM(0, "big", cluster.KindLLMI, 8, 2, trace.DailyBackup(0.5))
	c.AddVM(v)
	if _, err := New(Options{OverloadThr: 0.8}).PlaceNew(c, v, 0); err == nil {
		t.Fatal("expected no-capacity error")
	}
}

func TestRebalanceRelievesOverload(t *testing.T) {
	p := New(Options{})
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
	if !(THR{DefaultOverloadThreshold}).Overloaded(p.History(h0.ID)) {
		t.Fatalf("test premise: host should look overloaded, history %v", p.History(h0.ID))
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
	p := New(Options{})
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

func TestHistoryBounded(t *testing.T) {
	p := New(Options{})
	c, vms := testClusterWith([]int{4})
	_ = c.Place(vms[0], c.Hosts()[0])
	for hr := simtime.Hour(0); hr < simtime.Hour(HistoryLen+100); hr++ {
		p.RecordHour(c, hr, utilAt(c, hr))
	}
	if got := len(p.History(0)); got != HistoryLen {
		t.Fatalf("history length = %d, want %d", got, HistoryLen)
	}
}

// TestHistorySlidingWindow checks every host's history against a naive
// trailing window of all recorded utilizations over three windows'
// worth of hours — through several relocations of the sliding window —
// and checks that a policy restored from a mid-run checkpoint keeps
// matching it.
func TestHistorySlidingWindow(t *testing.T) {
	c := cluster.New()
	for i := 0; i < 3; i++ {
		c.AddHost(cluster.NewHost(i, "h", 16, 8, 0))
	}
	for i := 0; i < 2; i++ { // host 2 stays empty: a constant-zero history
		v := cluster.NewVM(i, "v", cluster.KindLLMU, 4, 2, trace.LLMU(uint64(7+i)))
		c.AddVM(v)
		if err := c.Place(v, c.Hosts()[i]); err != nil {
			t.Fatal(err)
		}
	}
	all := map[int][]float64{}
	check := func(label string, p *Policy, hr simtime.Hour) {
		t.Helper()
		for _, h := range c.Hosts() {
			want := all[h.ID]
			if len(want) > HistoryLen {
				want = want[len(want)-HistoryLen:]
			}
			if got := p.History(h.ID); !slices.Equal(got, want) {
				t.Fatalf("%s: hour %d host %d: history is not the trailing window", label, hr, h.ID)
			}
		}
	}
	p := New(Options{})
	var restored *Policy
	for hr := simtime.Hour(0); hr < 3*HistoryLen; hr++ {
		for _, h := range c.Hosts() {
			all[h.ID] = append(all[h.ID], h.Utilization(hr))
		}
		p.RecordHour(c, hr, utilAt(c, hr))
		check("live", p, hr)
		if restored != nil {
			restored.RecordHour(c, hr, utilAt(c, hr))
			check("restored", restored, hr)
		}
		if hr == HistoryLen+HistoryLen/2 {
			data, err := p.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			restored = New(Options{})
			if err := restored.RestoreState(data); err != nil {
				t.Fatal(err)
			}
			check("restored", restored, hr)
		}
	}
	a, _ := p.CheckpointState()
	b, _ := restored.CheckpointState()
	if !bytes.Equal(a, b) {
		t.Fatal("restored policy checkpoints differently from the live one")
	}
}

// TestRecordHourSteadyStateAllocs: once a host's backing array exists,
// recording hours allocates nothing, however often the window wraps.
func TestRecordHourSteadyStateAllocs(t *testing.T) {
	c := cluster.New()
	for i := 0; i < 3; i++ { // empty hosts: Utilization reads no trace
		c.AddHost(cluster.NewHost(i, "h", 16, 8, 0))
	}
	p := New(Options{})
	hr := simtime.Hour(0)
	util := utilAt(c, hr) // all zero, every hour
	p.RecordHour(c, hr, util)
	const hours = 4 * HistoryLen
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
	p := New(Options{})
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

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := correlation(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self correlation = %v", got)
	}
	b := []float64{4, 3, 2, 1}
	if got := correlation(a, b); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti correlation = %v", got)
	}
	flat := []float64{1, 1, 1, 1}
	if got := correlation(a, flat); got != 0 {
		t.Fatalf("degenerate correlation = %v", got)
	}
	if correlation(nil, nil) != 0 {
		t.Fatal("empty correlation should be 0")
	}
}

func TestOptionsDefaults(t *testing.T) {
	p := New(Options{})
	o := p.Options()
	if o.Overload == nil || o.Selector == nil ||
		o.Underload != DefaultUnderloadThreshold || o.OverloadThr != DefaultOverloadThreshold {
		t.Fatalf("defaults missing: %+v", o)
	}
	if p.Name() != "neat" {
		t.Fatal("name wrong")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
	if quantileSorted([]float64{1, 2, 3, 4}, 0) != 1 || quantileSorted([]float64{1, 2, 3, 4}, 1) != 4 {
		t.Fatal("quantile endpoints")
	}
	if quantileSorted(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
}
