package dcsim

import (
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/metrics"
	"drowsydc/internal/neat"
	"drowsydc/internal/oasis"
	"drowsydc/internal/power"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// testbed builds the paper's §VI-A cluster: 4 pool hosts with 2 slots
// each, 8 VMs — 2 LLMU (V1, V2) and 6 LLMI (V3–V8) with V3/V4 receiving
// the same workload. The LLMU VMs start on distinct machines.
func testbed() *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < 4; i++ {
		c.AddHost(cluster.NewHost(i, []string{"P2", "P3", "P4", "P5"}[i], 16, 4, 2))
	}
	specs := []struct {
		name string
		kind cluster.Kind
		gen  trace.Generator
	}{
		{"V1", cluster.KindLLMU, trace.LLMU(11)},
		{"V2", cluster.KindLLMU, trace.LLMU(22)},
		{"V3", cluster.KindLLMI, trace.RealTrace(1)},
		{"V4", cluster.KindLLMI, trace.RealTrace(1)},
		{"V5", cluster.KindLLMI, trace.RealTrace(3)},
		{"V6", cluster.KindLLMI, trace.RealTrace(4)},
		{"V7", cluster.KindLLMI, trace.RealTrace(5)},
		{"V8", cluster.KindLLMI, trace.RealTrace(2)},
	}
	for i, s := range specs {
		c.AddVM(cluster.NewVM(i, s.name, s.kind, 6, 2, s.gen))
	}
	vms := c.VMs()
	// V1 on P3, V2 on P2 (distinct machines, V2 initially on P2 as in
	// the paper); LLMI VMs mismatched on purpose.
	_ = c.Place(vms[0], c.Hosts()[1])
	_ = c.Place(vms[1], c.Hosts()[0])
	_ = c.Place(vms[2], c.Hosts()[0])
	_ = c.Place(vms[3], c.Hosts()[1])
	_ = c.Place(vms[4], c.Hosts()[2])
	_ = c.Place(vms[5], c.Hosts()[3])
	_ = c.Place(vms[6], c.Hosts()[2])
	_ = c.Place(vms[7], c.Hosts()[3])
	return c
}

func runPolicy(t *testing.T, name string, hours int, enableSuspend, useGrace bool) *Result {
	t.Helper()
	c := testbed()
	var pol cluster.Policy
	switch name {
	case "drowsy":
		pol = drowsy.New(drowsy.Options{FullRelocation: true})
	case "neat":
		pol = neat.New(neat.Options{})
	case "oasis":
		pol = oasis.New(oasis.Options{})
	default:
		t.Fatalf("unknown policy %s", name)
	}
	r := NewRunner(Config{
		Hours:         hours,
		EnableSuspend: enableSuspend,
		UseGrace:      useGrace,
	}, c, pol)
	return r.Run()
}

func TestDrowsyBeatsNeatOnSuspendedTime(t *testing.T) {
	const hours = 14 * 24
	drowsyRes := runPolicy(t, "drowsy", hours, true, true)
	neatRes := runPolicy(t, "neat", hours, true, false)
	if drowsyRes.GlobalSuspFrac <= neatRes.GlobalSuspFrac {
		t.Fatalf("Drowsy suspended %.1f%%, Neat %.1f%%: the idleness-aware placement must win",
			100*drowsyRes.GlobalSuspFrac, 100*neatRes.GlobalSuspFrac)
	}
	if drowsyRes.GlobalSuspFrac < 0.2 {
		t.Fatalf("Drowsy suspended only %.1f%%; LLMI-heavy testbed should sleep substantially",
			100*drowsyRes.GlobalSuspFrac)
	}
}

func TestEnergyOrdering(t *testing.T) {
	const hours = 7 * 24
	drowsyRes := runPolicy(t, "drowsy", hours, true, true)
	neatS3 := runPolicy(t, "neat", hours, true, false)
	neatVanilla := runPolicy(t, "neat", hours, false, false)
	if !(drowsyRes.EnergyKWh < neatS3.EnergyKWh) {
		t.Errorf("Drowsy %.2f kWh should beat Neat+S3 %.2f kWh", drowsyRes.EnergyKWh, neatS3.EnergyKWh)
	}
	if !(neatS3.EnergyKWh < neatVanilla.EnergyKWh) {
		t.Errorf("Neat+S3 %.2f kWh should beat vanilla Neat %.2f kWh", neatS3.EnergyKWh, neatVanilla.EnergyKWh)
	}
	// Sanity: vanilla energy is in the ballpark of 4 idle-ish hosts.
	p := power.DefaultProfile()
	minE := 4 * p.IdleWatts * float64(hours) * 3600 / 3.6e6
	maxE := 4 * p.PeakWatts * float64(hours) * 3600 / 3.6e6
	if neatVanilla.EnergyKWh < minE*0.99 || neatVanilla.EnergyKWh > maxE*1.01 {
		t.Errorf("vanilla energy %.2f kWh outside [%v, %v]", neatVanilla.EnergyKWh, minE, maxE)
	}
}

func TestLLMUHostNeverSleepsUnderDrowsy(t *testing.T) {
	res := runPolicy(t, "drowsy", 14*24, true, true)
	// Find the host with minimal suspension: it should be (near) zero —
	// the LLMU pair pins it awake.
	min := 1.0
	for _, f := range res.SuspendedFrac {
		if f < min {
			min = f
		}
	}
	if min > 0.02 {
		t.Fatalf("even the LLMU host slept %.1f%%; expected ~0", 100*min)
	}
}

func TestSLAHolds(t *testing.T) {
	res := runPolicy(t, "drowsy", 7*24, true, true)
	if res.Latency.Count() == 0 {
		t.Fatal("no requests recorded")
	}
	if f := res.Latency.SLAFraction(); f < 0.99 {
		t.Fatalf("SLA fraction %.4f < 0.99", f)
	}
	// Wake-triggered requests exist and pay the resume latency.
	if res.WakeLatency.Count() == 0 {
		t.Fatal("no wake-triggered requests recorded; suspension never interfered?")
	}
	p := power.DefaultProfile()
	if res.WakeLatency.Max() < p.ResumeLatency {
		t.Fatalf("wake latency max %.3fs below resume latency", res.WakeLatency.Max())
	}
}

func TestNaiveResumeSlower(t *testing.T) {
	c1 := testbed()
	fast := NewRunner(Config{Hours: 7 * 24, EnableSuspend: true, UseGrace: true},
		c1, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	c2 := testbed()
	slow := NewRunner(Config{Hours: 7 * 24, EnableSuspend: true, UseGrace: true, NaiveResume: true},
		c2, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	if fast.WakeLatency.Count() == 0 || slow.WakeLatency.Count() == 0 {
		t.Skip("no wake-triggered requests in this configuration")
	}
	if !(slow.WakeLatency.Max() > fast.WakeLatency.Max()) {
		t.Fatalf("naive resume max %.3fs should exceed optimized %.3fs",
			slow.WakeLatency.Max(), fast.WakeLatency.Max())
	}
}

// colocProbe is the tests' placement probe: it records the colocation
// matrix and counts each VM's host changes between recorded hours.
type colocProbe struct {
	*metrics.Colocation
	last  []int // last host of each VM, -1 before its first placement
	moves []int
}

func newColocProbe(n int) *colocProbe {
	p := &colocProbe{Colocation: metrics.NewColocation(n), last: make([]int, n), moves: make([]int, n)}
	for i := range p.last {
		p.last[i] = -1
	}
	return p
}

func (p *colocProbe) ObserveHour(HourSample) {}

func (p *colocProbe) ObservePlacement(hosts []int) {
	p.RecordHour(hosts)
	for i, h := range hosts {
		if h < 0 {
			continue
		}
		if p.last[i] >= 0 && h != p.last[i] {
			p.moves[i]++
		}
		p.last[i] = h
	}
}

func TestColocationOfMatchingPair(t *testing.T) {
	coloc := newColocProbe(8)
	res := NewRunner(Config{Hours: 21 * 24, EnableSuspend: true, UseGrace: true, Probe: coloc},
		testbed(), drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	// V3 (index 2) and V4 (index 3) share a workload: they must
	// converge onto one host and stay (paper Figure 2: 76% over a week;
	// with our σ-scaled models the convergence takes longer, but the
	// steady state is the same).
	if f := coloc.Fraction(2, 3); f < 0.4 {
		t.Fatalf("V3/V4 colocation %.2f < 0.4", f)
	}
	// LLMU pair V1/V2 likewise (paper: 85%).
	if f := coloc.Fraction(0, 1); f < 0.4 {
		t.Fatalf("V1/V2 colocation %.2f < 0.4", f)
	}
	// Migration counts stay small (paper: ≤ 3 per VM over a week).
	for i, m := range res.PerVMMigrations {
		if m > 8 {
			t.Errorf("VM %d migrated %d times over three weeks", i, m)
		}
	}
}

func TestTimerDrivenWakeAvoidsPenalty(t *testing.T) {
	// A host with only timer-driven backup VMs: the suspending module
	// announces the waking date, the waking module resumes the host
	// ahead of time, so no wake-triggered request latency is recorded.
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "P2", 16, 4, 2))
	v := cluster.NewVM(0, "backup", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.5))
	v.TimerDriven = true
	c.AddVM(v)
	_ = c.Place(v, c.Hosts()[0])
	r := NewRunner(Config{Hours: 5 * 24, EnableSuspend: true, UseGrace: true},
		c, neat.New(neat.Options{Underload: 1e-9}))
	res := r.Run()
	if res.ScheduledWakes == 0 {
		t.Fatal("no scheduled wakes fired; the timer path is dead")
	}
	if res.WakeLatency.Count() != 0 {
		t.Fatalf("%d wake-penalized requests; scheduled wakes should preempt them", res.WakeLatency.Count())
	}
	if res.GlobalSuspFrac < 0.8 {
		t.Fatalf("backup-only host suspended %.1f%%; should sleep most of the day", 100*res.GlobalSuspFrac)
	}
}

func TestOscillationCounts(t *testing.T) {
	// Suspend counts are bounded: at most one suspension per hour per
	// host (activity windows are hourly).
	res := runPolicy(t, "drowsy", 7*24, true, true)
	for i, n := range res.SuspendCounts {
		if n > 7*24 {
			t.Errorf("host %d suspended %d times in %d hours", i, n, 7*24)
		}
	}
}

func TestOasisRunsAndSleeps(t *testing.T) {
	res := runPolicy(t, "oasis", 7*24, true, false)
	if res.GlobalSuspFrac <= 0 {
		t.Fatal("Oasis should achieve some suspension")
	}
}

func TestVanillaNeverSuspends(t *testing.T) {
	res := runPolicy(t, "neat", 3*24, false, false)
	if res.GlobalSuspFrac != 0 {
		t.Fatalf("suspension disabled but hosts slept %.2f%%", 100*res.GlobalSuspFrac)
	}
	for _, n := range res.SuspendCounts {
		if n != 0 {
			t.Fatal("suspend transition with suspension disabled")
		}
	}
}

func TestEmptyHostPowersOff(t *testing.T) {
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "a", 16, 4, 2))
	c.AddHost(cluster.NewHost(1, "b", 16, 4, 2))
	v := cluster.NewVM(0, "v", cluster.KindLLMI, 6, 2, trace.RealTrace(1))
	c.AddVM(v)
	_ = c.Place(v, c.Hosts()[0])
	res := NewRunner(Config{Hours: 48, EnableSuspend: true, UseGrace: true},
		c, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	// The empty host must cost almost nothing (off ≈ 1.5 W).
	p := power.DefaultProfile()
	offKWh := p.OffWatts * 48 * 3600 / 3.6e6
	emptyCost := res.HostEnergyKWh[1]
	if emptyCost > offKWh*1.5 {
		t.Fatalf("empty host consumed %.3f kWh, want ≈ %.3f (off)", emptyCost, offKWh)
	}
}

func TestRunnerValidation(t *testing.T) {
	c := testbed()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero hours should panic")
			}
		}()
		NewRunner(Config{}, c, neat.New(neat.Options{}))
	}()
}

// TestNewRunnerRejectsDuplicateIDs: VM IDs are the tie-break of every
// placement and wake decision, and host IDs are the MACs wakes are
// addressed to, so two VMs or two hosts sharing one must be refused —
// a duplicate VM whether registered up front or arriving mid-run.
func TestNewRunnerRejectsDuplicateIDs(t *testing.T) {
	cases := []struct {
		name string
		edit func(c *cluster.Cluster, cfg *Config)
		want string
	}{
		{"vm", func(c *cluster.Cluster, _ *Config) {
			c.AddVM(cluster.NewVM(2, "dup", cluster.KindLLMI, 2, 1, trace.RealTrace(1)))
		}, "dcsim: duplicate VM ID 2"},
		{"arriving vm", func(_ *cluster.Cluster, cfg *Config) {
			cfg.Arrivals = []Arrival{{At: 3, VM: cluster.NewVM(2, "dup", cluster.KindLLMI, 2, 1, trace.RealTrace(1))}}
		}, "dcsim: duplicate VM ID 2"},
		{"host", func(c *cluster.Cluster, _ *Config) {
			c.AddHost(cluster.NewHost(1, "dup", 16, 4, 2))
		}, "dcsim: duplicate host ID 1"},
		{"negative host", func(c *cluster.Cluster, _ *Config) {
			c.AddHost(cluster.NewHost(-1, "neg", 16, 4, 2))
		}, `dcsim: host "neg" has negative ID -1`},
	}
	for _, tc := range cases {
		c := shardedFleet(4)
		cfg := Config{Hours: 24}
		tc.edit(c, &cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != tc.want {
					t.Errorf("%s: panic %q, want %q", tc.name, msg, tc.want)
				}
			}()
			NewRunner(cfg, c, neat.New(neat.Options{}))
		}()
	}
}

func TestStartHourOffset(t *testing.T) {
	c := testbed()
	r := NewRunner(Config{Hours: 24, StartHour: simtime.Date(1, 3, 10, 0), EnableSuspend: true, UseGrace: true},
		c, drowsy.New(drowsy.Options{FullRelocation: true}))
	res := r.Run()
	if res.Hours != 24 || res.EnergyKWh <= 0 {
		t.Fatalf("offset run broken: %+v", res)
	}
}

func TestWakingModuleAccessor(t *testing.T) {
	c := testbed()
	r := NewRunner(Config{Hours: 1, EnableSuspend: true}, c, neat.New(neat.Options{}))
	if r.WakingModule() == nil {
		t.Fatal("nil waking module")
	}
}

func TestMidRunArrival(t *testing.T) {
	// A VM created on day 2 is placed through the policy's PlaceNew
	// path and participates in the rest of the run.
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "a", 16, 4, 2))
	c.AddHost(cluster.NewHost(1, "b", 16, 4, 2))
	resident := cluster.NewVM(0, "resident", cluster.KindLLMI, 6, 2, trace.RealTrace(1))
	c.AddVM(resident)
	_ = c.Place(resident, c.Hosts()[0])
	newcomer := cluster.NewVM(1, "newcomer", cluster.KindLLMI, 6, 2, trace.RealTrace(1))
	coloc := newColocProbe(2)
	r := NewRunner(Config{
		Hours:         5 * 24,
		EnableSuspend: true,
		UseGrace:      true,
		Arrivals:      []Arrival{{At: 48, VM: newcomer}},
		Probe:         coloc,
	}, c, drowsy.New(drowsy.Options{FullRelocation: true}))
	res := r.Run()
	if newcomer.Host() == nil {
		t.Fatal("arrival was never placed")
	}
	if len(res.PerVMMigrations) != 2 {
		t.Fatalf("reporting covers %d VMs, want 2", len(res.PerVMMigrations))
	}
	// Colocation before hour 48 must be zero (it did not exist), and
	// the same-workload pair should co-run afterwards.
	if f := coloc.Fraction(0, 1); f <= 0 || f > float64(3*24)/float64(5*24)+0.01 {
		t.Fatalf("colocation fraction %v inconsistent with a day-2 arrival", f)
	}
	if coloc.moves[1] > 3 {
		t.Fatalf("newcomer migrated %d times", coloc.moves[1])
	}
}

func TestArrivalValidation(t *testing.T) {
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "a", 16, 4, 2))
	v := cluster.NewVM(0, "v", cluster.KindLLMI, 6, 2, trace.RealTrace(1))
	c.AddVM(v)
	_ = c.Place(v, c.Hosts()[0])
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil arrival VM should panic")
			}
		}()
		NewRunner(Config{Hours: 24, Arrivals: []Arrival{{At: 1, VM: nil}}}, c, neat.New(neat.Options{}))
	}()
}

func TestSLMULifecycle(t *testing.T) {
	// A MapReduce-like SLMU VM arrives on day 1 and terminates on day 3;
	// after departure its host empties and powers off.
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "a", 16, 4, 2))
	c.AddHost(cluster.NewHost(1, "b", 16, 4, 2))
	resident := cluster.NewVM(0, "resident", cluster.KindLLMI, 6, 2, trace.DailyBackup(0.3))
	c.AddVM(resident)
	_ = c.Place(resident, c.Hosts()[0])
	job := cluster.NewVM(1, "mapreduce", cluster.KindSLMU, 6, 2, trace.SLMU(24, 48, 0.9))
	coloc := newColocProbe(2)
	r := NewRunner(Config{
		Hours:         6 * 24,
		EnableSuspend: true,
		UseGrace:      true,
		Arrivals:      []Arrival{{At: 24, VM: job}},
		Departures:    []Departure{{At: 3 * 24, VM: job}},
		Probe:         coloc,
	}, c, neat.New(neat.Options{}))
	res := r.Run()
	if job.Host() != nil {
		t.Fatal("departed VM still placed")
	}
	if len(c.VMs()) != 1 {
		t.Fatalf("cluster still has %d VMs, want 1", len(c.VMs()))
	}
	if len(res.PerVMMigrations) != 2 {
		t.Fatalf("reporting covers %d VMs", len(res.PerVMMigrations))
	}
	// The job co-ran with nothing after departure: colocation fraction
	// bounded by its 2-day residency over the 6-day run.
	if f := coloc.Fraction(1, 1); f > 2.0/6+0.01 {
		t.Fatalf("departed VM colocation with itself = %v; should stop accruing", f)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepartureOfUnknownVMIsSafe(t *testing.T) {
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "a", 16, 4, 2))
	v := cluster.NewVM(0, "v", cluster.KindLLMI, 6, 2, trace.RealTrace(1))
	c.AddVM(v)
	_ = c.Place(v, c.Hosts()[0])
	ghost := cluster.NewVM(9, "ghost", cluster.KindSLMU, 4, 2, trace.SLMU(0, 5, 1))
	// The ghost was never added to the cluster; its departure is a no-op
	// but must not crash the run. (It is not in allVMs either, so it is
	// invisible to reporting.)
	c2 := c
	r := NewRunner(Config{
		Hours:         24,
		EnableSuspend: true,
		Departures:    []Departure{{At: 5, VM: ghost}},
	}, c2, neat.New(neat.Options{}))
	res := r.Run()
	if res.EnergyKWh <= 0 {
		t.Fatal("run broken")
	}
}
