package dcsim

import (
	"fmt"
	"reflect"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/netsim"
	"drowsydc/internal/trace"
)

// shardedFleet builds a deterministic mixed fleet large enough to span
// several shards at small ShardHostSpan values: hosts 2-slot machines,
// VMs cycling through the trace catalog so shards see heterogeneous
// activity (some hosts sleep, some stay pinned awake by LLMU tenants).
func shardedFleet(hosts int) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < hosts; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprintf("H%d", i), 16, 4, 2))
	}
	gens := []func(i int) trace.Generator{
		func(i int) trace.Generator { return trace.RealTrace(1 + i%5) },
		func(i int) trace.Generator { return trace.DailyBackup(0.4) },
		func(i int) trace.Generator { return trace.LLMU(uint64(7 + i)) },
		func(i int) trace.Generator { return trace.RealTrace(1 + (i+2)%5) },
	}
	kinds := []cluster.Kind{cluster.KindLLMI, cluster.KindLLMI, cluster.KindLLMU, cluster.KindLLMI}
	for i := 0; i < hosts; i++ {
		g := i % len(gens)
		v := cluster.NewVM(i, fmt.Sprintf("v%d", i), kinds[g], 6, 2, gens[g](i))
		c.AddVM(v)
		_ = c.Place(v, c.Hosts()[i])
	}
	return c
}

// runSharded runs a drowsy simulation over the given fleet with an
// explicit worker count and shard span.
func runSharded(hosts, hours, workers, span int, churn bool) *Result {
	c, cfg := shardedRun(hosts, hours, workers, span, churn)
	return NewRunner(cfg, c, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
}

// shardedRun builds runSharded's fleet and configuration.
func shardedRun(hosts, hours, workers, span int, churn bool) (*cluster.Cluster, Config) {
	c := shardedFleet(hosts)
	cfg := Config{
		Hours:         hours,
		EnableSuspend: true,
		UseGrace:      true,
		ShardWorkers:  workers,
		ShardHostSpan: span,
	}
	if churn {
		// Arrivals and departures landing on *different shards in the
		// same hour*: with span 2, VM 0 lives on shard 0 and the last VM
		// on the last shard; the newcomers get policy-placed wherever
		// fits, and the same-hour departures empty hosts at both ends of
		// the shard order.
		n1 := cluster.NewVM(1000, "n1", cluster.KindLLMI, 6, 2, trace.RealTrace(2))
		n2 := cluster.NewVM(1001, "n2", cluster.KindSLMU, 6, 2, trace.SLMU(48, 96, 0.9))
		cfg.Arrivals = []Arrival{{At: 48, VM: n1}, {At: 48, VM: n2}}
		cfg.Departures = []Departure{
			{At: 96, VM: c.VMs()[0]},
			{At: 96, VM: c.VMs()[hosts-1]},
			{At: 96, VM: n2},
		}
	}
	return c, cfg
}

// requireIdenticalResults asserts two runs are bit-identical, field by
// field, so a mismatch names the diverging aggregate instead of
// reporting an opaque DeepEqual failure.
func requireIdenticalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.EnergyKWh != got.EnergyKWh {
		t.Errorf("%s: energy %v != %v", label, got.EnergyKWh, want.EnergyKWh)
	}
	if !reflect.DeepEqual(want.HostEnergyKWh, got.HostEnergyKWh) {
		t.Errorf("%s: per-host energy diverged", label)
	}
	if !reflect.DeepEqual(want.SuspendedFrac, got.SuspendedFrac) ||
		want.GlobalSuspFrac != got.GlobalSuspFrac {
		t.Errorf("%s: suspension accounting diverged", label)
	}
	if !reflect.DeepEqual(want.SuspendCounts, got.SuspendCounts) {
		t.Errorf("%s: suspend counts diverged", label)
	}
	if want.Migrations != got.Migrations ||
		!reflect.DeepEqual(want.PerVMMigrations, got.PerVMMigrations) {
		t.Errorf("%s: migrations diverged", label)
	}
	if !reflect.DeepEqual(want.Latency, got.Latency) {
		t.Errorf("%s: latency multiset diverged", label)
	}
	if !reflect.DeepEqual(want.WakeLatency, got.WakeLatency) {
		t.Errorf("%s: wake-latency multiset diverged", label)
	}
	if want.ScheduledWakes != got.ScheduledWakes || want.PacketWakes != got.PacketWakes {
		t.Errorf("%s: wake counters diverged (%d/%d != %d/%d)", label,
			got.ScheduledWakes, got.PacketWakes, want.ScheduledWakes, want.PacketWakes)
	}
	if want.EventHours != got.EventHours {
		t.Errorf("%s: event hours %d != %d", label, got.EventHours, want.EventHours)
	}
}

// TestShardWorkerCountEquivalence is the tentpole's core contract: the
// sharded parallel executor is bit-identical to the serial walk at
// every worker count. 24 hosts at span 5 → 5 shards, the last one
// ragged.
func TestShardWorkerCountEquivalence(t *testing.T) {
	serial := runSharded(24, 7*24, 1, 5, false)
	for _, workers := range []int{2, 8} {
		par := runSharded(24, 7*24, workers, 5, false)
		requireIdenticalResults(t, fmt.Sprintf("workers=%d", workers), serial, par)
	}
}

// TestShardSpanEquivalence: the shard partition itself must be
// invisible — one giant shard, per-host shards and the default span
// all reproduce the same run.
func TestShardSpanEquivalence(t *testing.T) {
	want := runSharded(12, 5*24, 1, 1024, false) // single shard
	for _, span := range []int{1, 2, 64} {
		got := runSharded(12, 5*24, 4, span, false)
		requireIdenticalResults(t, fmt.Sprintf("span=%d", span), want, got)
	}
}

// TestCrossShardChurnEquivalence drives arrivals and departures that
// land on different shards in the same hour (span 2 → 8 shards over 16
// hosts) and checks the parallel run remains bit-identical to serial
// and structurally sound. Run under -race this also proves the serial
// churn phases publish their placement mutations to the parallel host
// phase correctly.
func TestCrossShardChurnEquivalence(t *testing.T) {
	serial := runSharded(16, 7*24, 1, 2, true)
	for _, workers := range []int{2, 8} {
		par := runSharded(16, 7*24, workers, 2, true)
		requireIdenticalResults(t, fmt.Sprintf("churn workers=%d", workers), serial, par)
	}
	if len(serial.PerVMMigrations) != 16+2 {
		t.Fatalf("reporting covers %d VMs, want 18", len(serial.PerVMMigrations))
	}
}

// placementLog is a placement probe that checks each hour's placement
// against the live cluster and keeps a copy of the stream.
type placementLog struct {
	t   *testing.T
	vms []*cluster.VM // the run's VMs in reporting order
	log [][]int
}

func (p *placementLog) ObserveHour(HourSample) {}

func (p *placementLog) ObservePlacement(hosts []int) {
	if len(hosts) != len(p.vms) {
		p.t.Fatalf("hour %d: placement of %d VMs, want %d", len(p.log), len(hosts), len(p.vms))
	}
	for i, v := range p.vms {
		want := -1
		if h := v.Host(); h != nil {
			want = h.ID
		}
		if hosts[i] != want {
			p.t.Errorf("hour %d: VM %s on host %d, probe saw %d", len(p.log), v.Name, want, hosts[i])
		}
	}
	p.log = append(p.log, append([]int(nil), hosts...))
}

// TestPlacementProbeSeesEveryHour: a placement probe receives every
// VM's host once per hour — arrivals before they exist and departed
// VMs as -1 — and the stream is identical serial and sharded.
func TestPlacementProbeSeesEveryHour(t *testing.T) {
	run := func(workers int) [][]int {
		c, cfg := shardedRun(16, 7*24, workers, 2, true)
		p := &placementLog{t: t, vms: append([]*cluster.VM(nil), c.VMs()...)}
		for _, a := range cfg.Arrivals {
			p.vms = append(p.vms, a.VM)
		}
		cfg.Probe = p
		NewRunner(cfg, c, drowsy.New(drowsy.Options{FullRelocation: true})).Run()
		if len(p.log) != cfg.Hours {
			t.Fatalf("workers=%d: %d placements over %d hours", workers, len(p.log), cfg.Hours)
		}
		return p.log
	}
	serial := run(1)
	// The first arrival (index 16) exists from hour 48; VM 0 departs at
	// hour 96.
	if serial[47][16] != -1 || serial[48][16] < 0 || serial[95][0] < 0 || serial[96][0] != -1 {
		t.Fatalf("churn invisible to the probe: arrival %d→%d, departure %d→%d",
			serial[47][16], serial[48][16], serial[95][0], serial[96][0])
	}
	for _, workers := range []int{2, 8} {
		if !reflect.DeepEqual(serial, run(workers)) {
			t.Fatalf("workers=%d: placement stream differs from the serial run", workers)
		}
	}
}

// TestAssignmentsAllReusesBuffer pins the per-hour placement snapshot
// to its pooled buffer: after the first call, taking an assignment
// snapshot must not allocate.
func TestAssignmentsAllReusesBuffer(t *testing.T) {
	c := shardedFleet(8)
	r := NewRunner(Config{Hours: 24, ShardHostSpan: 2},
		c, drowsy.New(drowsy.Options{FullRelocation: true}))
	r.assignmentsAll() // first call grows the buffer
	if n := testing.AllocsPerRun(50, func() { r.assignmentsAll() }); n != 0 {
		t.Fatalf("assignmentsAll allocates %v times per call after warm-up", n)
	}
}

// TestShardWorkerValidation: negative worker or span counts are
// programmer errors, rejected at construction.
func TestShardWorkerValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Hours: 1, ShardWorkers: -1},
		{Hours: 1, ShardHostSpan: -4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewRunner(cfg, shardedFleet(2), drowsy.New(drowsy.Options{}))
		}()
	}
}

// TestShardsShareVMTable pins the sharded runtime's memory layout: the
// shards' primary switches share one VM→MAC table sized to the slot
// count, so a VM mapped by its host's shard resolves through every
// primary, while a mirror's switch keeps a table of its own. A table per
// shard would grow memory with shards × fleet.
func TestShardsShareVMTable(t *testing.T) {
	c := shardedFleet(8)
	r := NewRunner(Config{Hours: 1, EnableSuspend: true, ShardHostSpan: 2}, c, drowsy.New(drowsy.Options{}))
	if len(r.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(r.shards))
	}
	h := c.Hosts()[5]
	v := netsim.VMID(h.VMs()[0].Slot())
	r.hosts[h.Pos()].sh.wm.HostSuspended(netsim.MAC(h.ID), []netsim.VMID{v}, 0, false)
	for i, sh := range r.shards {
		if mac, ok := sh.wm.Switch().Lookup(v); !ok || mac != netsim.MAC(h.ID) {
			t.Fatalf("shard %d primary: Lookup(%d) = %d,%v; want %d,true", i, v, mac, ok, h.ID)
		}
		if _, ok := sh.mirror.Switch().Lookup(v); ok {
			t.Fatalf("shard %d mirror resolves VM %d before any takeover", i, v)
		}
	}
}
