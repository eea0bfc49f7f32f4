package exp

import (
	"strings"
	"testing"
)

func TestFigure1(t *testing.T) {
	r := RunFigure1(6)
	if len(r.Names) != 2 {
		t.Fatalf("traces = %d", len(r.Names))
	}
	for i, lv := range r.Levels {
		if len(lv) != 6*24 {
			t.Fatalf("trace %d has %d hours", i, len(lv))
		}
	}
	var b strings.Builder
	r.Render(&b)
	if !strings.Contains(b.String(), "VM3,VM4") {
		t.Fatal("render missing trace name")
	}
}

func TestTestbedShort(t *testing.T) {
	r := RunTestbed(7)
	if r.Drowsy.EnergyKWh <= 0 || r.NeatS3.EnergyKWh <= 0 || r.NeatVanilla.EnergyKWh <= 0 {
		t.Fatal("zero energy")
	}
	// Policy ordering must hold (the paper's headline).
	if !(r.Drowsy.EnergyKWh < r.NeatS3.EnergyKWh && r.NeatS3.EnergyKWh < r.NeatVanilla.EnergyKWh) {
		t.Fatalf("energy ordering violated: %.2f / %.2f / %.2f",
			r.Drowsy.EnergyKWh, r.NeatS3.EnergyKWh, r.NeatVanilla.EnergyKWh)
	}
	var b strings.Builder
	r.RenderFigure2(&b)
	r.RenderTable1(&b)
	r.RenderEnergy(&b)
	out := b.String()
	for _, want := range []string{"Figure 2", "Table I", "Drowsy-DC", "kWh", "SLA"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFigure4OneYear(t *testing.T) {
	traces := RunFigure4(1)
	if len(traces) != 8 {
		t.Fatalf("traces = %d", len(traces))
	}
	byName := map[string]Figure4Trace{}
	for _, tr := range traces {
		byName[tr.Name] = tr
		if len(tr.Points) == 0 {
			t.Fatalf("%s: no metric points", tr.Name)
		}
	}
	// (a) daily backup: near-perfect after a year.
	if f := byName["daily-backup"].Final.FMeasure(); f < 0.95 {
		t.Errorf("daily-backup F-measure %.3f < 0.95", f)
	}
	// (h) LLMU: specificity ≈ 1 (the model recognizes always-active).
	if s := byName["llmu"].Final.Specificity(); s < 0.99 {
		t.Errorf("llmu specificity %.3f < 0.99", s)
	}
	// Production-like traces: strong F-measure.
	for i := 1; i <= 5; i++ {
		name := traces[1+i].Name
		if f := traces[1+i].Final.FMeasure(); f < 0.85 {
			t.Errorf("%s F-measure %.3f < 0.85", name, f)
		}
	}
	var b strings.Builder
	RenderFigure4(&b, traces)
	if !strings.Contains(b.String(), "f-measure") {
		t.Fatal("render broken")
	}
}

func TestFigure3(t *testing.T) {
	r := RunFigure3()
	// The counts are deterministic (only the latency column reads the
	// wall clock), so they are pinned exactly.
	if r.DetectionCorrect != 64 || r.DetectionCases != 64 {
		t.Errorf("idle detection %d/%d, want 64/64", r.DetectionCorrect, r.DetectionCases)
	}
	if r.SuspendsWithoutGrace != 3086 || r.SuspendsWithGrace != 77 {
		t.Errorf("oscillation: %d suspends/hour without grace vs %d with, want 3086 vs 77",
			r.SuspendsWithoutGrace, r.SuspendsWithGrace)
	}
	if r.WakeDatesCorrect != 100 || r.WakeDatesTotal != 100 {
		t.Errorf("waking dates %d/%d, want 100/100", r.WakeDatesCorrect, r.WakeDatesTotal)
	}
	if len(r.ScaleProcs) != len(r.ScaleLatency) || len(r.ScaleProcs) == 0 {
		t.Fatal("scalability series empty")
	}
	var b strings.Builder
	r.Render(&b)
	if !strings.Contains(b.String(), "oscillation") {
		t.Fatal("render broken")
	}
}

func TestScaling(t *testing.T) {
	pts := RunScaling([]int{16, 64})
	if len(pts) != 2 {
		t.Fatal("points")
	}
	// Oasis grows quadratically, Drowsy linearly: the ratio at 64 VMs
	// must exceed the ratio at 16.
	r0 := float64(pts[0].OasisPairs) / float64(pts[0].DrowsyIPs)
	r1 := float64(pts[1].OasisPairs) / float64(pts[1].DrowsyIPs)
	if r1 <= r0 {
		t.Fatalf("complexity gap did not widen: %.2f -> %.2f", r0, r1)
	}
	var b strings.Builder
	RenderScaling(&b, pts)
	if !strings.Contains(b.String(), "pair-evals") {
		t.Fatal("render broken")
	}
}

func TestSimulationTiny(t *testing.T) {
	cfg := SimConfig{Hosts: 4, Slots: 2, Days: 7, Fractions: []float64{0, 1}, RebalanceEvery: 12}
	pts := RunSimulation(cfg)
	if len(pts) != 2 {
		t.Fatal("points")
	}
	allLLMI := pts[1]
	noLLMI := pts[0]
	// With no LLMI VMs there is nothing to suspend: Drowsy ≈ Neat+S3
	// (it may still win a little by packing more tightly).
	if noLLMI.ImprovVsNeatS3 > 25 || noLLMI.ImprovVsNeatS3 < -10 {
		t.Errorf("improvement at 0%% LLMI should be small, got %.1f%%", noLLMI.ImprovVsNeatS3)
	}
	// With all-LLMI the improvement vs vanilla Neat must be large.
	if allLLMI.ImprovVsNeat < 20 {
		t.Errorf("improvement at 100%% LLMI vs vanilla = %.1f%%, want > 20%%", allLLMI.ImprovVsNeat)
	}
	// Improvement must grow with the LLMI fraction (the paper's
	// "depending on the fraction of LLMI VMs" headline).
	if allLLMI.ImprovVsNeat <= noLLMI.ImprovVsNeat {
		t.Errorf("improvement did not grow with LLMI fraction: %.1f%% -> %.1f%%",
			noLLMI.ImprovVsNeat, allLLMI.ImprovVsNeat)
	}
	var b strings.Builder
	RenderSimulation(&b, cfg, pts)
	if !strings.Contains(b.String(), "LLMI frac") {
		t.Fatal("render broken")
	}
}

func TestRenderTable2(t *testing.T) {
	var b strings.Builder
	RenderTable2(&b)
	out := b.String()
	for _, want := range []string{"daily-backup", "comic-strips", "llmu"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table II missing %s", want)
		}
	}
}
