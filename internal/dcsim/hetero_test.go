package dcsim

import (
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/neat"
	"drowsydc/internal/power"
	"drowsydc/internal/trace"
)

func heteroCluster() *cluster.Cluster {
	c := cluster.New()
	// One slot per host: consolidation cannot move the VMs, so each
	// host plays the identical workload for the whole run.
	c.AddHost(cluster.NewHost(0, "efficient", 16, 4, 1))
	c.AddHost(cluster.NewHost(1, "legacy", 16, 4, 1))
	for i := 0; i < 2; i++ {
		// Same seed on purpose: both hosts see the identical utilization
		// series, so the energy ratio isolates the profile difference.
		v := cluster.NewVM(i, "vm", cluster.KindLLMU, 4, 2, trace.LLMU(7))
		c.AddVM(v)
		if err := c.Place(v, c.Hosts()[i]); err != nil {
			panic(err)
		}
	}
	return c
}

// TestHostProfilesEnergy runs identical always-on workloads on two hosts
// whose profiles differ only in wattage: the legacy host must burn
// proportionally more energy.
func TestHostProfilesEnergy(t *testing.T) {
	legacy := power.DefaultProfile()
	legacy.IdleWatts *= 2
	legacy.PeakWatts *= 2
	legacy.SuspendedWatts *= 2
	res := NewRunner(Config{
		Hours:        7 * 24,
		HostProfiles: map[int]power.Profile{1: legacy},
	}, heteroCluster(), neat.New()).Run()
	if len(res.HostEnergyKWh) != 2 {
		t.Fatalf("want 2 host energies, got %d", len(res.HostEnergyKWh))
	}
	eff, leg := res.HostEnergyKWh[0], res.HostEnergyKWh[1]
	if eff <= 0 || leg <= 0 {
		t.Fatalf("non-positive energies: %v %v", eff, leg)
	}
	// Same workload, double wattage at every level the run visits.
	if ratio := leg / eff; ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("legacy/efficient energy ratio %.3f, want ~2", ratio)
	}
}

// TestHostProfilesDefaultIdentical asserts that an empty override map is
// byte-for-byte the homogeneous configuration.
func TestHostProfilesDefaultIdentical(t *testing.T) {
	run := func(hp map[int]power.Profile) *Result {
		return NewRunner(Config{
			Hours:         7 * 24,
			EnableSuspend: true,
			UseGrace:      true,
			HostProfiles:  hp,
		}, testbed(), drowsy.New(drowsy.Options{FullRelocation: true})).Run()
	}
	base := run(nil)
	withEmpty := run(map[int]power.Profile{})
	withSame := run(map[int]power.Profile{2: power.DefaultProfile()})
	for name, r := range map[string]*Result{"empty-map": withEmpty, "same-profile": withSame} {
		if r.EnergyKWh != base.EnergyKWh || r.Migrations != base.Migrations ||
			r.GlobalSuspFrac != base.GlobalSuspFrac ||
			r.Latency.SLAFraction() != base.Latency.SLAFraction() {
			t.Fatalf("%s: results differ from homogeneous run", name)
		}
	}
}
