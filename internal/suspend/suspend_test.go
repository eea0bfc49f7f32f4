package suspend

import (
	"math"
	"testing"
	"testing/quick"

	"drowsydc/internal/ossim"
	"drowsydc/internal/simtime"
)

func TestGraceTimeEndpoints(t *testing.T) {
	if g := GraceTime(1); g != MinGrace {
		t.Fatalf("GraceTime(1) = %v, want %v", g, MinGrace)
	}
	if g := GraceTime(0); g != MaxGrace {
		t.Fatalf("GraceTime(0) = %v, want %v", g, MaxGrace)
	}
	// Out-of-range probabilities clamp.
	if GraceTime(-3) != MaxGrace || GraceTime(7) != MinGrace {
		t.Fatal("clamping broken")
	}
}

func TestGraceTimeMaxBound(t *testing.T) {
	// The swept bound replaces MaxGrace at the endpoints and the
	// default bound reproduces GraceTime bit for bit.
	for _, max := range []simtime.Duration{MinGrace, 30 * simtime.Second, MaxGrace, 3600 * simtime.Second} {
		if g := GraceTimeMax(0, max); g != max {
			t.Fatalf("GraceTimeMax(0, %v) = %v", max, g)
		}
		if g := GraceTimeMax(1, max); g != MinGrace {
			t.Fatalf("GraceTimeMax(1, %v) = %v", max, g)
		}
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			g := GraceTimeMax(p, max)
			if g < MinGrace || g > max {
				t.Fatalf("GraceTimeMax(%v, %v) = %v outside [%v, %v]", p, max, g, MinGrace, max)
			}
		}
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if GraceTimeMax(p, MaxGrace) != GraceTime(p) {
			t.Fatalf("GraceTimeMax at the default bound diverges from GraceTime at p=%v", p)
		}
	}
	// A bound below MinGrace clamps to a flat minimal grace.
	if g := GraceTimeMax(0, 1); g != MinGrace {
		t.Fatalf("sub-minimum bound: %v, want %v", g, MinGrace)
	}
}

func TestMonitorMaxGraceConfig(t *testing.T) {
	os := ossim.New()
	long := NewMonitor(Config{UseGrace: true, MaxGrace: 3600 * simtime.Second}, os)
	long.OnResume(0, 0)
	if got := long.GraceUntil(); got != 3600 {
		t.Fatalf("max-grace 3600 monitor grace until %v, want 3600", got)
	}
	// Zero means the paper default.
	def := NewMonitor(Config{UseGrace: true}, os)
	def.OnResume(0, 0)
	if got := def.GraceUntil(); got != simtime.Time(MaxGrace) {
		t.Fatalf("default monitor grace until %v, want %v", got, MaxGrace)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative MaxGrace accepted")
		}
	}()
	NewMonitor(Config{MaxGrace: -1}, os)
}

func TestGraceTimeMonotoneProperty(t *testing.T) {
	// Property: grace time decreases (weakly) as probability increases.
	f := func(a, b uint16) bool {
		pa := float64(a) / 65535
		pb := float64(b) / 65535
		ga, gb := GraceTime(pa), GraceTime(pb)
		if pa < pb {
			return ga >= gb
		}
		return gb >= ga
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraceTimeExponentialShape(t *testing.T) {
	// Halfway probability should give the geometric mean of the bounds
	// (~24.5 s), not the arithmetic mean (62.5 s): the curve is
	// exponential, conservative toward active VMs.
	mid := GraceTime(0.5)
	if mid < 20*simtime.Second || mid > 30*simtime.Second {
		t.Fatalf("GraceTime(0.5) = %vs, want ~24.5s (geometric)", mid)
	}
}

func TestGraceTimeNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GraceTime(nan())
}

func nan() float64 { z := 0.0; return z / z }

func newIdleOS() *ossim.OS {
	os := ossim.New()
	os.Blacklist("monitord")
	os.Spawn("monitord", ossim.StateRunning)
	os.Spawn("qemu-v1", ossim.StateSleeping)
	return os
}

func TestCheckSuspendsIdleHost(t *testing.T) {
	os := newIdleOS()
	m := NewMonitor(Config{UseGrace: true}, os)
	m.OnResume(0, 1.0) // grace = MinGrace = 5s
	if d := m.Check(3); d.Suspend {
		t.Fatal("grace must veto suspension at t=3")
	}
	d := m.Check(10)
	if !d.Suspend {
		t.Fatalf("idle host past grace should suspend: %+v", d)
	}
	if d.HasWake {
		t.Fatal("no timers: no waking date")
	}
}

func TestCheckVetoesBusyHost(t *testing.T) {
	os := newIdleOS()
	pid := os.Spawn("qemu-v2", ossim.StateRunning)
	m := NewMonitor(Config{UseGrace: true}, os)
	m.OnResume(0, 1.0)
	if d := m.Check(100); d != (Decision{}) {
		t.Fatalf("busy host: decision %+v, want a veto", d)
	}
	os.SetState(pid, ossim.StateBlockedIO)
	if d := m.Check(100); d != (Decision{}) {
		t.Fatalf("blocked-on-IO host: decision %+v, want a veto", d)
	}
	os.SetState(pid, ossim.StateSleeping)
	if d := m.Check(100); d != (Decision{Suspend: true}) {
		t.Fatalf("sleeping host with no timer: decision %+v, want a suspension with no waking date", d)
	}
}

func TestWakingDateFromTimers(t *testing.T) {
	os := newIdleOS()
	backup := os.Spawn("backup", ossim.StateSleeping)
	os.RegisterTimer(backup, 5000)
	// Blacklisted timer earlier than the backup's must be filtered.
	mon := 1 // monitord was the first spawn
	os.RegisterTimer(mon, 1000)
	m := NewMonitor(Config{UseGrace: true}, os)
	m.OnResume(0, 1.0)
	d := m.Check(10)
	if !d.Suspend || !d.HasWake || d.WakeAt != 5000 {
		t.Fatalf("decision = %+v, want wake at 5000", d)
	}
}

func TestAlreadySuspended(t *testing.T) {
	m := NewMonitor(Config{UseGrace: true}, newIdleOS())
	m.OnResume(0, 1.0)
	m.OnSuspend()
	if !m.Suspended() {
		t.Fatal("should be suspended")
	}
	if d := m.Check(100); d.Suspend {
		t.Fatal("suspended host cannot suspend again")
	}
	m.OnResume(200, 0.0)
	if m.Suspended() {
		t.Fatal("resume should clear suspended flag")
	}
	// Probability 0 → MaxGrace: no suspension before 200+120.
	if d := m.Check(310); d.Suspend {
		t.Fatal("grace of an active-looking host should last 2 minutes")
	}
	if d := m.Check(200 + simtime.Time(MaxGrace)); !d.Suspend {
		t.Fatal("grace expired; should suspend")
	}
}

func TestGraceDisabled(t *testing.T) {
	m := NewMonitor(Config{UseGrace: false}, newIdleOS())
	m.OnResume(0, 0.0)
	if d := m.Check(0); !d.Suspend {
		t.Fatal("without grace an idle host suspends immediately")
	}
	if m.GraceUntil() != 0 {
		t.Fatalf("graceUntil = %v", m.GraceUntil())
	}
}

func TestOscillationPrevention(t *testing.T) {
	// A host flapping between 1-second activity bursts: with grace
	// enabled the suspend count within a grace window must be at most
	// one. Simulate 60 check cycles 1 s apart with resume after each
	// suspension.
	os := newIdleOS()
	with := NewMonitor(Config{UseGrace: true}, os)
	without := NewMonitor(Config{UseGrace: false}, os)
	suspWith, suspWithout := 0, 0
	with.OnResume(0, 0.2) // active-ish host: long grace
	without.OnResume(0, 0.2)
	for s := simtime.Time(1); s <= 60; s++ {
		if d := with.Check(s); d.Suspend {
			suspWith++
			with.OnSuspend()
			with.OnResume(s, 0.2) // immediately woken again
		}
		if d := without.Check(s); d.Suspend {
			suspWithout++
			without.OnSuspend()
			without.OnResume(s, 0.2)
		}
	}
	if suspWith != 0 {
		t.Fatalf("grace-protected host oscillated %d times", suspWith)
	}
	if suspWithout < 50 {
		t.Fatalf("unprotected host should oscillate nearly every second, got %d", suspWithout)
	}
}

func TestConstructorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil host should panic")
		}
	}()
	NewMonitor(Config{UseGrace: true}, nil)
}

func BenchmarkCheck(b *testing.B) {
	os := newIdleOS()
	for i := 0; i < 100; i++ {
		p := os.Spawn("svc", ossim.StateSleeping)
		os.RegisterTimer(p, simtime.Time(100000+i))
	}
	m := NewMonitor(Config{UseGrace: true}, os)
	m.OnResume(0, 1.0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Check(simtime.Time(10 + i))
	}
}

// TestGraceTimeMaxNaNPanics pins the probability guard: a NaN idleness
// probability is a model bug upstream and must fail loudly rather than
// silently producing an arbitrary grace.
func TestGraceTimeMaxNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN probability did not panic")
		}
	}()
	GraceTimeMax(math.NaN(), MaxGrace)
}
