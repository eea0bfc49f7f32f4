package ossim

import (
	"slices"
	"testing"
	"testing/quick"

	"drowsydc/internal/simtime"
)

func TestIdleRules(t *testing.T) {
	o := New()
	o.Blacklist("monitord", "watchdog")
	if !o.Idle() {
		t.Fatal("empty OS should be idle")
	}
	// Blacklisted running process: still idle (false negative handled).
	mon := o.Spawn("monitord", StateRunning)
	if !o.Idle() {
		t.Fatal("blacklisted running process must not block suspension")
	}
	// Sleeping workload: idle.
	vm := o.Spawn("qemu-vm1", StateSleeping)
	if !o.Idle() {
		t.Fatal("sleeping process should be idle")
	}
	// Running workload: busy.
	o.SetState(vm, StateRunning)
	if o.Idle() {
		t.Fatal("running process must block suspension")
	}
	// Blocked on I/O: the paper's first false-positive class — must
	// block suspension.
	o.SetState(vm, StateBlockedIO)
	if o.Idle() {
		t.Fatal("blocked-on-IO process must block suspension")
	}
	o.SetState(vm, StateSleeping)
	_ = mon
	if !o.Idle() {
		t.Fatal("should be idle again")
	}
}

func TestTimerScanFiltersBlacklist(t *testing.T) {
	o := New()
	o.Blacklist("watchdog")
	wd := o.Spawn("watchdog", StateSleeping)
	backup := o.Spawn("backup", StateSleeping)
	o.RegisterTimer(wd, 100) // earlier but blacklisted
	o.RegisterTimer(backup, 500)
	at, ok := o.NextWake()
	if !ok || at != 500 {
		t.Fatalf("NextWake = %v,%v; want 500,true", at, ok)
	}
}

func TestNextWakeNoValidTimers(t *testing.T) {
	o := New()
	o.Blacklist("watchdog")
	wd := o.Spawn("watchdog", StateSleeping)
	o.RegisterTimer(wd, 100)
	if _, ok := o.NextWake(); ok {
		t.Fatal("only blacklisted timers: no waking date expected")
	}
	empty := New()
	if _, ok := empty.NextWake(); ok {
		t.Fatal("no timers at all: no waking date expected")
	}
}

func TestTimerOrderProperty(t *testing.T) {
	// Property: NextWake returns the earliest timer registered so far,
	// regardless of registration order.
	f := func(raw []uint16) bool {
		o := New()
		p := o.Spawn("p", StateSleeping)
		if _, ok := o.NextWake(); ok {
			return false
		}
		for i, r := range raw {
			o.RegisterTimer(p, simtime.Time(r))
			if at, ok := o.NextWake(); !ok || at != simtime.Time(slices.Min(raw[:i+1])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnUnknownPID(t *testing.T) {
	cases := map[string]func(*OS){
		"SetState":      func(o *OS) { o.SetState(99, StateRunning) },
		"RegisterTimer": func(o *OS) { o.RegisterTimer(99, 1) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on unknown pid", name)
				}
			}()
			fn(New())
		}()
	}
}

func BenchmarkIdleCheck(b *testing.B) {
	o := New()
	o.Blacklist("monitord")
	for i := 0; i < 200; i++ {
		o.Spawn("proc", StateSleeping)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !o.Idle() {
			b.Fatal("should be idle")
		}
	}
}

func BenchmarkNextWake(b *testing.B) {
	o := New()
	p := o.Spawn("p", StateSleeping)
	for i := 0; i < 1000; i++ {
		o.RegisterTimer(p, simtime.Time(i*7%997))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.NextWake()
	}
}
