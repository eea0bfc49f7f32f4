package drowsydc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The facade golden pins every Report field, the colocation matrix
// included, for the paper's three testbed configurations and one run
// with the calendar start, the naive resume path and a consolidation
// period set. The simulation is deterministic, so the fixture is
// byte-stable; floats print at full precision. Regenerate after an
// intentional change with:
//
//	go test . -run TestGoldenFacade -update

var update = flag.Bool("update", false, "rewrite golden fixtures")

// writeReport prints every field of r, then the n×n colocation matrix.
func writeReport(b *bytes.Buffer, label string, r *Report, n int) {
	fmt.Fprintf(b, "== %s\n", label)
	fmt.Fprintf(b, "policy=%s days=%d\n", r.Policy, r.Days)
	fmt.Fprintf(b, "energy_kwh=%v\n", r.EnergyKWh)
	fmt.Fprintf(b, "suspended_fraction=%v\n", r.SuspendedFraction)
	fmt.Fprintf(b, "per_host_suspended=%v\n", r.PerHostSuspended)
	fmt.Fprintf(b, "migrations=%d\n", r.Migrations)
	fmt.Fprintf(b, "sla_fraction=%v\n", r.SLAFraction)
	fmt.Fprintf(b, "worst_wake_latency_seconds=%v\n", r.WorstWakeLatencySeconds)
	fmt.Fprintln(b, "colocation:")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fmt.Fprintf(b, " %v", r.ColocationFraction(i, j))
		}
		fmt.Fprintln(b)
	}
}

func TestGoldenFacade(t *testing.T) {
	runs := []struct {
		label  string
		policy Policy
		setup  func(*Scenario)
	}{
		{"drowsy-full", PolicyDrowsyFull, func(*Scenario) {}},
		{"neat-s3", PolicyNeat, func(s *Scenario) { s.Grace = false }},
		{"neat", PolicyNeat, func(s *Scenario) { s.Suspend, s.Grace = false, false }},
		{"drowsy-start-naive-rebalance", PolicyDrowsy, func(s *Scenario) {
			s.Start = Date(1, 5, 0, 0)
			s.NaiveResume = true
			s.RebalanceEveryHours = 6
		}},
	}
	var b bytes.Buffer
	for _, run := range runs {
		s := Testbed()
		run.setup(s)
		rep, err := s.Run(run.policy)
		if err != nil {
			t.Fatalf("%s: %v", run.label, err)
		}
		writeReport(&b, run.label, rep, len(s.vms))
	}
	path := filepath.Join("testdata", "facade.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test . -run TestGoldenFacade -update` to create the fixture)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("facade report drifted from fixture\n--- got ---\n%s\n--- want ---\n%s", b.Bytes(), want)
	}
}
