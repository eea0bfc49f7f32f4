package scenario

import (
	"reflect"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/oasis"
)

// The acceptance backbone of the fleet-scale Oasis rebuild: on every
// registered scenario family, at population sizes spanning 64 to 1024
// VMs, the indexed bound-pruned selection and the exhaustive reference
// produce bit-identical migrations, energy and SLA. The horizon is
// shrunk (the selection runs identically per round; more rounds only
// repeat the property), the comparison is not: both modes run the full
// simulation pipeline — placement, churn, suspension, event timelines
// where the family uses them.

// hostsForVMs scales a family's fleet until its simulated population
// reaches target (families derive VM counts from host counts).
func hostsForVMs(t *testing.T, f Family, target, horizon int) int {
	t.Helper()
	for hosts := 1; hosts <= 64*target; hosts++ {
		sc := f.Build(Params{Hosts: hosts, HorizonHours: horizon})
		if sc.SimulatedVMs() >= target {
			return hosts
		}
	}
	t.Fatalf("family %s cannot reach %d VMs", f.Name, target)
	return 0
}

// exhaustiveOasis builds the reference selection (full
// score-materialize-and-sort): decisions bit-identical to the indexed
// search, which is what the suite asserts.
func exhaustiveOasis() cluster.Policy { return oasis.New(oasis.Options{Exhaustive: true}) }

func TestOasisIndexedMatchesExhaustiveOnFamilies(t *testing.T) {
	const horizon = 48
	sizes := []int{64, 256, 1024}
	for _, f := range Families() {
		for _, size := range sizes {
			hosts := hostsForVMs(t, f, size, horizon)
			sc := f.Build(Params{Hosts: hosts, HorizonHours: horizon})
			// One run, two columns over identical materializations: the
			// reports must agree on every field but the label.
			sc.Policies = []PolicyConfig{
				{Label: "x", Policy: "oasis", Suspend: true},
				{Label: "x", Policy: "oasis", Suspend: true, New: exhaustiveOasis},
			}
			rep, err := Run(sc, Options{})
			if err != nil {
				t.Fatalf("%s at %d VMs: %v", f.Name, size, err)
			}
			if rep.VMs < size {
				t.Fatalf("%s: %d VMs simulated, want >= %d", f.Name, rep.VMs, size)
			}
			if !reflect.DeepEqual(rep.Policies[0], rep.Policies[1]) {
				t.Fatalf("%s at %d VMs: indexed and exhaustive Oasis diverge\nindexed:    %+v\nexhaustive: %+v",
					f.Name, rep.VMs, rep.Policies[0], rep.Policies[1])
			}
		}
	}
}

// TestHeteroFleetIncludesOasis pins the headline outcome: the flagship
// fleet family now carries the Oasis column the paper's §VII comparison
// needs (it used to be excluded as impractical at this scale).
func TestHeteroFleetIncludesOasis(t *testing.T) {
	f, ok := Lookup("hetero-fleet-year")
	if !ok {
		t.Fatal("hetero-fleet-year not registered")
	}
	sc := f.Build(Params{})
	found := false
	for _, pc := range sc.Policies {
		if pc.Policy == "oasis" {
			found = true
		}
	}
	if !found {
		t.Fatal("hetero-fleet-year no longer compares against Oasis")
	}
	// Shrunk end-to-end smoke: the column actually runs and produces a
	// sane report alongside the others.
	sc = f.Build(Params{Hosts: 14, HorizonHours: 14 * 24})
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var oasisKWh float64
	for _, pr := range rep.Policies {
		if pr.Policy == "oasis" {
			oasisKWh = pr.EnergyKWh
		}
	}
	if oasisKWh <= 0 {
		t.Fatalf("oasis column missing or dead in report: %+v", rep.Policies)
	}
}
