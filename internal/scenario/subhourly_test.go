package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"drowsydc/internal/dcsim"
)

// The sub-hourly event mode layers a third execution-invisible choice
// on top of cell parallelism and the shared trace store: the shared
// timeline store. These tests extend the bit-identity guarantees to
// event-resolution runs and pin the subsystem's headline claim — that
// the grace and resume-latency axes, flat at hourly resolution on
// low-migration families, become strictly monotone once within-hour
// idle gaps exist.

// subHourly builds the interactive-web family at test scale (it runs
// at event resolution by default and carries a replicated group, so
// the shared timeline store is genuinely engaged).
func subHourly() Scenario {
	sc := small("interactive-web")
	if sc.Resolution != dcsim.ResolutionEvent {
		panic("interactive-web no longer defaults to event resolution")
	}
	return sc
}

// TestSubHourlySerialParallelIdentical extends the serial-vs-parallel
// bit-identity to event-resolution runs.
func TestSubHourlySerialParallelIdentical(t *testing.T) {
	sc := subHourly()
	serial, err := Run(sc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(sc, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel sub-hourly reports differ\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestSubHourlySharedPrivateIdentical extends the shared-vs-private
// bit-identity: the shared timeline store (one burst memo for the
// replicated group across all concurrently running cells) must be
// invisible in the results.
func TestSubHourlySharedPrivateIdentical(t *testing.T) {
	sc := subHourly()
	shared, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	private, err := Run(sc, Options{private: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, private) {
		t.Fatalf("shared and private sub-hourly reports differ\nshared:  %+v\nprivate: %+v",
			shared, private)
	}
}

// TestSubHourlySweepSerialParallelIdentical extends the sweep-driver
// bit-identity to an event-resolution sweep.
func TestSubHourlySweepSerialParallelIdentical(t *testing.T) {
	sc := subHourly()
	sc.Sweep = Sweep{Param: "grace", Values: []float64{5, 300}}
	serial, err := RunSweep(sc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(sc, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel sub-hourly sweeps differ")
	}
}

// policyColumn finds a policy row in a report.
func policyColumn(t *testing.T, rep Report, label string) PolicyResult {
	t.Helper()
	for _, pr := range rep.Policies {
		if pr.Policy == label {
			return pr
		}
	}
	t.Fatalf("no %q column in %+v", label, rep)
	return PolicyResult{}
}

// TestSubHourlyGraceAxisMonotone pins the subsystem's acceptance
// claim: on interactive-web the grace axis is strictly monotone — a
// longer grace bound keeps resumed hosts awake across more within-hour
// gaps, so drowsy energy strictly rises and fleet suspends fall.
func TestSubHourlyGraceAxisMonotone(t *testing.T) {
	sc := subHourly()
	sc.Sweep = Sweep{Param: "grace", Values: []float64{5, 60, 300, 1800}}
	rep, err := RunSweep(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevEnergy := -1.0
	prevSuspends := int(1 << 60)
	for _, pt := range rep.Points {
		pr := policyColumn(t, pt.Report, "drowsy")
		if pr.EnergyKWh <= prevEnergy {
			t.Fatalf("grace %v: drowsy energy %v not strictly above previous %v (flat axis)",
				pt.Value, pr.EnergyKWh, prevEnergy)
		}
		if pr.Suspends > prevSuspends {
			t.Fatalf("grace %v: suspends %d rose above previous %d", pt.Value, pr.Suspends, prevSuspends)
		}
		prevEnergy = pr.EnergyKWh
		prevSuspends = pr.Suspends
	}
	first := policyColumn(t, rep.Points[0].Report, "drowsy").Suspends
	last := policyColumn(t, rep.Points[len(rep.Points)-1].Report, "drowsy").Suspends
	if first <= last {
		t.Fatalf("suspends did not fall across the axis (%d -> %d)", first, last)
	}
}

// TestSubHourlyResumeLatencyAxisMonotone pins the second acceptance
// axis: every packet wake burns the resume latency at peak power and
// delays re-suspension, so drowsy energy strictly rises with it.
func TestSubHourlyResumeLatencyAxisMonotone(t *testing.T) {
	sc := subHourly()
	sc.Sweep = Sweep{Param: "resume-latency", Values: []float64{0.5, 1, 2, 4, 8}}
	rep, err := RunSweep(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, pt := range rep.Points {
		pr := policyColumn(t, pt.Report, "drowsy")
		if pr.EnergyKWh <= prev {
			t.Fatalf("resume latency %v: drowsy energy %v not strictly above previous %v (flat axis)",
				pt.Value, pr.EnergyKWh, prev)
		}
		prev = pr.EnergyKWh
	}
}

// TestResolutionSweepAxis runs the resolution parameter itself as a
// sweep axis: point 0 must be byte-identical to a plain hourly run of
// the same scenario, and the event point must genuinely differ.
func TestResolutionSweepAxis(t *testing.T) {
	sc := small("always-on-mix") // hourly family; the axis flips it
	sc.Sweep = Sweep{Param: "resolution", Values: []float64{0, 1}}
	rep, err := RunSweep(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(sc.At(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rep.Points[0].Report)
	want, _ := json.Marshal(plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("resolution=0 sweep point differs from the plain hourly run\nsweep: %s\nplain: %s",
			got, want)
	}
	if reflect.DeepEqual(rep.Points[0].Report, rep.Points[1].Report) {
		t.Fatal("hourly and event resolution produced identical reports; the axis is not plumbed")
	}
}

// TestParamsResolutionOverride covers the CLI-facing override: forcing
// interactive-web back to hourly must change its physics, and a bad
// name must error before any simulation runs.
func TestParamsResolutionOverride(t *testing.T) {
	p := Params{Hosts: 6, HorizonHours: 3 * 24}
	event, err := RunFamily("interactive-web", p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Resolution = "hourly"
	hourly, err := RunFamily("interactive-web", p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(event, hourly) {
		t.Fatal("resolution override had no effect")
	}
	p.Resolution = "minutely"
	if _, err := RunFamily("interactive-web", p, Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown resolution") {
		t.Fatalf("bad resolution accepted (err=%v)", err)
	}
	if _, err := RunFamilySweep("interactive-web", p,
		Sweep{Param: "grace", Values: []float64{30}}, Options{}); err == nil {
		t.Fatal("bad resolution accepted by RunFamilySweep")
	}
}

// TestRunReportRenderTable smoke-checks the run report's text
// rendering (the `scenario run -table` satellite): header line, one
// row per policy, energy at Wh resolution.
func TestRunReportRenderTable(t *testing.T) {
	sc := subHourly()
	sc.HorizonHours = 2 * 24
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep.RenderTable(&b)
	out := b.String()
	if !strings.Contains(out, "interactive-web — ") || !strings.Contains(out, "energy-kWh") {
		t.Fatalf("missing header:\n%s", out)
	}
	if got, want := strings.Count(out, "\n"), 2+len(rep.Policies); got != want {
		t.Fatalf("%d lines, want %d:\n%s", got, want, out)
	}
	for _, pr := range rep.Policies {
		if !strings.Contains(out, pr.Policy) {
			t.Fatalf("missing row for %s:\n%s", pr.Policy, out)
		}
	}
	// The JSON writer is the same encoder the CLI uses; exercise it on
	// the same report.
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if decoded.Scenario != rep.Scenario || len(decoded.Policies) != len(rep.Policies) {
		t.Fatalf("round-trip lost data: %+v", decoded)
	}
}

// TestValidateRejectsUnknownResolution pins the scenario-level guard.
func TestValidateRejectsUnknownResolution(t *testing.T) {
	sc := small("always-on-mix")
	sc.Resolution = dcsim.Resolution(5)
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "resolution") {
		t.Fatalf("unknown resolution accepted (err=%v)", err)
	}
}
