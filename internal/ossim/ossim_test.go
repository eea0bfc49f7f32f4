package ossim

import (
	"testing"
	"testing/quick"

	"drowsydc/internal/simtime"
)

func TestSpawnKillProcessTable(t *testing.T) {
	o := New()
	a := o.Spawn("apache", StateRunning)
	b := o.Spawn("sshd", StateSleeping)
	if o.NumProcesses() != 2 {
		t.Fatalf("procs = %d", o.NumProcesses())
	}
	pa, okA := o.Process(a)
	pb, okB := o.Process(b)
	if !okA || !okB || pa.Name != "apache" || pb.State != StateSleeping {
		t.Fatal("process fields wrong")
	}
	o.Kill(a)
	if _, ok := o.Process(a); o.NumProcesses() != 1 || ok {
		t.Fatal("kill failed")
	}
	o.Kill(a) // idempotent
	snap := o.Snapshot()
	if len(snap) != 1 || snap[0].Name != "sshd" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

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

func TestPopExpiredOrder(t *testing.T) {
	o := New()
	a := o.Spawn("a", StateSleeping)
	b := o.Spawn("b", StateSleeping)
	c := o.Spawn("c", StateSleeping)
	o.RegisterTimer(a, 300)
	o.RegisterTimer(b, 100)
	o.RegisterTimer(c, 200)
	pids := o.PopExpired(250)
	if len(pids) != 2 || pids[0] != b || pids[1] != c {
		t.Fatalf("expired = %v", pids)
	}
	if o.NumTimers() != 1 {
		t.Fatalf("timers left = %d", o.NumTimers())
	}
	if rest := o.PopExpired(1000); len(rest) != 1 || rest[0] != a {
		t.Fatalf("rest = %v", rest)
	}
}

func TestKillRemovesTimers(t *testing.T) {
	o := New()
	a := o.Spawn("a", StateSleeping)
	b := o.Spawn("b", StateSleeping)
	o.RegisterTimer(a, 100)
	o.RegisterTimer(b, 200)
	o.RegisterTimer(a, 300)
	o.Kill(a)
	if o.NumTimers() != 1 {
		t.Fatalf("timers = %d, want 1", o.NumTimers())
	}
	at, ok := o.NextWake()
	if !ok || at != 200 {
		t.Fatalf("NextWake = %v,%v", at, ok)
	}
}

func TestTimerOrderProperty(t *testing.T) {
	// Property: PopExpired returns timers in non-decreasing expiry
	// order regardless of registration order.
	f := func(raw []uint16) bool {
		o := New()
		p := o.Spawn("p", StateSleeping)
		for _, r := range raw {
			o.RegisterTimer(p, simtime.Time(r))
		}
		prev := simtime.Time(-1)
		for o.NumTimers() > 0 {
			at, ok := o.NextWake()
			if !ok {
				return false
			}
			if at < prev {
				return false
			}
			pids := o.PopExpired(at)
			if len(pids) == 0 {
				return false
			}
			prev = at
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

func TestProcStateString(t *testing.T) {
	if StateSleeping.String() != "sleeping" || StateRunning.String() != "running" ||
		StateBlockedIO.String() != "blocked-io" || ProcState(9).String() == "" {
		t.Fatal("state names wrong")
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
