package exp

import (
	"reflect"
	"testing"

	"drowsydc/internal/dcsim"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// runTestbedOn runs the testbed scenario with VM i reading its
// activity from srcs[i], holding everything else fixed.
func runTestbedOn(srcs []trace.Source) *dcsim.Result {
	c := BuildCluster(4, 16, 4, 2, TestbedSpecs())
	for _, v := range c.VMs() {
		v.Wire(srcs[v.ID], nil, v.TimelineSeed())
	}
	return dcsim.NewRunner(dcsim.Config{
		Hours:         7 * 24,
		EnableSuspend: true,
		UseGrace:      true,
	}, c, NewPolicy("drowsy-full")).Run()
}

// requireIdenticalResults compares every headline number of two runs
// exactly — memoization and parallelism must be observably
// semantics-preserving, not merely close.
func requireIdenticalResults(t *testing.T, a, b *dcsim.Result, what string) {
	t.Helper()
	if a.EnergyKWh != b.EnergyKWh {
		t.Errorf("%s: energy %v vs %v", what, a.EnergyKWh, b.EnergyKWh)
	}
	if a.GlobalSuspFrac != b.GlobalSuspFrac {
		t.Errorf("%s: suspended fraction %v vs %v", what, a.GlobalSuspFrac, b.GlobalSuspFrac)
	}
	if a.Migrations != b.Migrations {
		t.Errorf("%s: migrations %d vs %d", what, a.Migrations, b.Migrations)
	}
	for i := range a.HostEnergyKWh {
		if a.HostEnergyKWh[i] != b.HostEnergyKWh[i] {
			t.Errorf("%s: host %d energy %v vs %v", what, i, a.HostEnergyKWh[i], b.HostEnergyKWh[i])
		}
	}
	for i := range a.PerVMMigrations {
		if a.PerVMMigrations[i] != b.PerVMMigrations[i] {
			t.Errorf("%s: VM %d migrations %d vs %d", what, i, a.PerVMMigrations[i], b.PerVMMigrations[i])
		}
	}
	if a.Latency.Count() != b.Latency.Count() || a.Latency.SLAFraction() != b.Latency.SLAFraction() {
		t.Errorf("%s: SLA %v/%d vs %v/%d", what,
			a.Latency.SLAFraction(), a.Latency.Count(), b.Latency.SLAFraction(), b.Latency.Count())
	}
	if a.WakeLatency.Max() != b.WakeLatency.Max() {
		t.Errorf("%s: worst wake latency %v vs %v", what, a.WakeLatency.Max(), b.WakeLatency.Max())
	}
	if a.ScheduledWakes != b.ScheduledWakes || a.PacketWakes != b.PacketWakes {
		t.Errorf("%s: wakes %d/%d vs %d/%d", what,
			a.ScheduledWakes, a.PacketWakes, b.ScheduledWakes, b.PacketWakes)
	}
}

// TestCachingPreservesSemantics runs one testbed scenario twice over
// the same activity memos — cold, then warm, so the second run reads
// the chunks the first one published — and asserts identical energy,
// suspension, migration and SLA numbers (generators are pure, so the
// memo's state must be invisible).
func TestCachingPreservesSemantics(t *testing.T) {
	var srcs []trace.Source
	for _, s := range TestbedSpecs() {
		srcs = append(srcs, trace.NewSource(s.Gen))
	}
	requireIdenticalResults(t, runTestbedOn(srcs), runTestbedOn(srcs), "cold/warm memos")
}

// TestSweepSerialParallelIdentical runs the §VI-B sweep serially and on
// the worker pool and asserts identical points: every grid cell is an
// independent deterministic run, so scheduling must not matter.
func TestSweepSerialParallelIdentical(t *testing.T) {
	cfg := SimConfig{Hosts: 4, Slots: 2, Days: 5, Fractions: []float64{0, 0.5, 1}, RebalanceEvery: 12}
	serial, parallel := cfg, cfg
	serial.Workers = 1
	parallel.Workers = 4
	sp := RunSimulation(serial)
	pp := RunSimulation(parallel)
	if len(sp) != len(pp) {
		t.Fatalf("point counts differ: %d vs %d", len(sp), len(pp))
	}
	for i := range sp {
		if sp[i] != pp[i] {
			t.Errorf("point %d differs: serial %+v, parallel %+v", i, sp[i], pp[i])
		}
	}
}

// TestScalingParallelDeterministic pins the §VII evaluation counts,
// which must not depend on worker scheduling either: serial and
// parallel grids must agree exactly.
func TestScalingParallelDeterministic(t *testing.T) {
	a := RunScalingWorkers([]int{16, 32}, 1)
	b := RunScalingWorkers([]int{16, 32}, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("scale point %d differs serial vs parallel: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTrainHoursParallelIdentical pins the chunked, column-batched
// trainer to the naive per-VM/per-hour Observe walk: every model must
// come out bit-identical at any worker count. (The column sweep rides
// the same exactness-guarded fast paths as the simulation runtime, so
// "close" would mean a broken guard — only exact equality passes.)
func TestTrainHoursParallelIdentical(t *testing.T) {
	const n, hours = 130, 48 // 130 VMs → three chunks, the last ragged
	naive := ScalingCluster(n)
	for h := simtime.Hour(0); h < hours; h++ {
		for _, v := range naive.VMs() {
			v.Observe(h, v.Activity(h))
		}
	}
	for _, workers := range []int{1, 4} {
		c := ScalingCluster(n)
		trainHoursWorkers(c, hours, workers)
		for i, v := range c.VMs() {
			if !reflect.DeepEqual(v.Model, naive.VMs()[i].Model) {
				t.Fatalf("workers=%d: VM %d model diverges from the naive trainer", workers, i)
			}
		}
	}
}

// TestTestbedSerialParallelIdentical asserts the three testbed
// configurations report identical results at any worker count.
func TestTestbedSerialParallelIdentical(t *testing.T) {
	a := RunTestbedWorkers(3, 1)
	b := RunTestbedWorkers(3, 3)
	requireIdenticalResults(t, a.Drowsy, b.Drowsy, "testbed drowsy")
	requireIdenticalResults(t, a.NeatS3, b.NeatS3, "testbed neat+S3")
	requireIdenticalResults(t, a.NeatVanilla, b.NeatVanilla, "testbed vanilla")
}
