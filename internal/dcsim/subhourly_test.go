package dcsim

import (
	"reflect"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/neat"
	"drowsydc/internal/power"
	"drowsydc/internal/trace"
)

// runTestbedAt runs the testbed under drowsy-full with the given
// resolution (suspend + grace on).
func runTestbedAt(t *testing.T, hours int, res Resolution, profile power.Profile) *Result {
	t.Helper()
	c := testbed()
	r := NewRunner(Config{
		Hours:         hours,
		EnableSuspend: true,
		UseGrace:      true,
		Resolution:    res,
		Profile:       profile,
	}, c, neat.New())
	return r.Run()
}

// TestHourlyDefaultIsZeroValue pins the invariant the whole subsystem
// rests on: the zero-value Config selects hourly resolution, and an
// explicit ResolutionHourly is the same run bit for bit.
func TestHourlyDefaultIsZeroValue(t *testing.T) {
	if ResolutionHourly != 0 {
		t.Fatal("ResolutionHourly must be the zero value")
	}
	implicit := runPolicy(t, "neat", 7*24, true, false) // zero-value Resolution
	explicit := NewRunner(Config{
		Hours:         7 * 24,
		EnableSuspend: true,
		Resolution:    ResolutionHourly,
	}, testbed(), neat.New()).Run()
	if !reflect.DeepEqual(implicit, explicit) {
		t.Fatal("explicit hourly resolution differs from the zero-value config")
	}
	if implicit.EventHours != 0 {
		t.Fatalf("hourly run recorded %d event hours", implicit.EventHours)
	}
}

// TestEventModeDeterministic pins purity: two identical event-mode runs
// are bit-identical (the property serial/parallel and shared/private
// equivalence at scenario level builds on).
func TestEventModeDeterministic(t *testing.T) {
	p := power.DefaultProfile()
	a := runTestbedAt(t, 7*24, ResolutionEvent, p)
	b := runTestbedAt(t, 7*24, ResolutionEvent, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("event-mode runs are not deterministic")
	}
}

// TestEventModeDynamics checks the sub-hourly physics on the testbed:
// transition hours are simulated at event granularity, hosts suspend
// inside within-hour gaps (more suspend transitions than the hourly
// run sees), packet wakes charge resume latency, and the gap
// suspensions save energy relative to hourly resolution.
func TestEventModeDynamics(t *testing.T) {
	const hours = 7 * 24
	p := power.DefaultProfile()
	hourly := runTestbedAt(t, hours, ResolutionHourly, p)
	event := runTestbedAt(t, hours, ResolutionEvent, p)

	if event.EventHours == 0 {
		t.Fatal("no hours simulated at event granularity")
	}
	suspends := func(r *Result) int {
		n := 0
		for _, c := range r.SuspendCounts {
			n += c
		}
		return n
	}
	if suspends(event) <= suspends(hourly) {
		t.Fatalf("event mode suspends %d times, hourly %d — gaps are not being used",
			suspends(event), suspends(hourly))
	}
	if event.PacketWakes <= hourly.PacketWakes {
		t.Fatalf("event mode packet wakes %d <= hourly %d", event.PacketWakes, hourly.PacketWakes)
	}
	if event.WakeLatency.Count() == 0 {
		t.Fatal("no wake latencies recorded in event mode")
	}
	if w := event.WakeLatency.Max(); w < p.ResumeLatency {
		t.Fatalf("worst wake %v below the resume latency %v", w, p.ResumeLatency)
	}
	if event.EnergyKWh >= hourly.EnergyKWh {
		t.Fatalf("event-mode energy %.3f kWh not below hourly %.3f kWh",
			event.EnergyKWh, hourly.EnergyKWh)
	}
}

// TestEventModeResumeLatencyMonotone sweeps the resume latency at event
// resolution: each packet wake burns the latency at peak power and
// delays re-suspension, so fleet energy must strictly increase — the
// sensitivity the hourly model flattened.
func TestEventModeResumeLatencyMonotone(t *testing.T) {
	prev := -1.0
	for _, lat := range []float64{0.8, 2.5, 8, 20} {
		p := power.DefaultProfile()
		p.ResumeLatency = lat
		if p.NaiveResumeLatency < lat {
			p.NaiveResumeLatency = lat
		}
		res := runTestbedAt(t, 7*24, ResolutionEvent, p)
		if res.EnergyKWh <= prev {
			t.Fatalf("resume latency %v: energy %.6f kWh not above previous %.6f",
				lat, res.EnergyKWh, prev)
		}
		prev = res.EnergyKWh
	}
}

// TestEventModeFullHourBurstsTakeHourlyPath pins the fast path: a
// fully loaded VM expands to the whole hour, so no hour of its host is
// simulated at event granularity.
func TestEventModeFullHourBurstsTakeHourlyPath(t *testing.T) {
	c := cluster.New()
	c.AddHost(cluster.NewHost(0, "h0", 16, 4, 2))
	v := cluster.NewVM(0, "v0", cluster.KindLLMU, 6, 2,
		trace.Generator{Name: "flat", Fn: trace.Const(1)})
	c.AddVM(v)
	if err := c.Place(v, c.Hosts()[0]); err != nil {
		t.Fatal(err)
	}
	res := NewRunner(Config{
		Hours:         48,
		EnableSuspend: true,
		UseGrace:      true,
		Resolution:    ResolutionEvent,
	}, c, neat.New()).Run()
	if res.EventHours != 0 {
		t.Fatalf("%d event hours on a fully busy VM, want 0", res.EventHours)
	}
}

// TestUnknownResolutionPanics pins the configuration guard.
func TestUnknownResolutionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown resolution did not panic")
		}
	}()
	NewRunner(Config{Hours: 1, Resolution: Resolution(7)}, testbed(), neat.New())
}

// TestParseResolution covers the CLI-facing parser.
func TestParseResolution(t *testing.T) {
	for s, want := range map[string]Resolution{"hourly": ResolutionHourly, "event": ResolutionEvent} {
		got, err := ParseResolution(s)
		if err != nil || got != want {
			t.Fatalf("ParseResolution(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() roundtrip: %q vs %q", got.String(), s)
		}
	}
	if _, err := ParseResolution("minutely"); err == nil {
		t.Fatal("bad resolution accepted")
	}
	if s := Resolution(9).String(); s == "" {
		t.Fatal("unknown resolution has empty String")
	}
}
