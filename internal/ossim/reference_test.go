package ossim

import (
	"math/rand/v2"
	"testing"

	"drowsydc/internal/simtime"
)

// refOS is the map-backed process table the PID-indexed one replaced,
// kept as the reference its randomized equivalence test drives: the
// blacklist is consulted at call time, and Idle scans every process.
type refOS struct {
	procs     map[int]*refProc
	timers    []refTimer
	nextPID   int
	blacklist map[string]bool
}

type refProc struct {
	name  string
	state ProcState
}

type refTimer struct {
	at  simtime.Time
	pid int
}

func newRefOS() *refOS {
	return &refOS{procs: map[int]*refProc{}, blacklist: map[string]bool{}, nextPID: 1}
}

func (o *refOS) Blacklist(names ...string) {
	for _, n := range names {
		o.blacklist[n] = true
	}
}

func (o *refOS) Spawn(name string, st ProcState) int {
	pid := o.nextPID
	o.nextPID++
	o.procs[pid] = &refProc{name: name, state: st}
	return pid
}

func (o *refOS) SetState(pid int, st ProcState) { o.procs[pid].state = st }

func (o *refOS) RegisterTimer(pid int, at simtime.Time) {
	o.timers = append(o.timers, refTimer{at: at, pid: pid})
}

func (o *refOS) Idle() bool {
	for _, p := range o.procs {
		if o.blacklist[p.name] {
			continue
		}
		if p.state == StateRunning || p.state == StateBlockedIO {
			return false
		}
	}
	return true
}

func (o *refOS) NextWake() (simtime.Time, bool) {
	best := simtime.Time(0)
	found := false
	for _, tm := range o.timers {
		if o.blacklist[o.procs[tm.pid].name] {
			continue
		}
		if !found || tm.at < best {
			best = tm.at
			found = true
		}
	}
	return best, found
}

// TestMatchesMapReference drives the PID-indexed table and the map
// reference through one seeded random sequence of spawns, state
// changes, timers and late blacklisting, comparing every query after
// every step.
func TestMatchesMapReference(t *testing.T) {
	names := []string{"qemu-a", "qemu-b", "monitord", "watchdog", "backup"}
	states := []ProcState{StateSleeping, StateRunning, StateBlockedIO}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		o, ref := New(), newRefOS()
		if seed%2 == 0 {
			o.Blacklist("monitord")
			ref.Blacklist("monitord")
		}
		var pids []int
		now := simtime.Time(0)
		for step := 0; step < 400; step++ {
			switch op := rng.IntN(20); {
			case op < 6 || len(pids) == 0:
				name, st := names[rng.IntN(len(names))], states[rng.IntN(len(states))]
				p, rp := o.Spawn(name, st), ref.Spawn(name, st)
				if p != rp {
					t.Fatalf("seed %d step %d: Spawn = pid %d, reference %d", seed, step, p, rp)
				}
				pids = append(pids, p)
			case op < 12:
				pid, st := pids[rng.IntN(len(pids))], states[rng.IntN(len(states))]
				o.SetState(pid, st)
				ref.SetState(pid, st)
			case op < 18:
				now += simtime.Time(rng.IntN(50))
				pid, at := pids[rng.IntN(len(pids))], now+simtime.Time(rng.IntN(500))
				o.RegisterTimer(pid, at)
				ref.RegisterTimer(pid, at)
			default:
				name := names[rng.IntN(len(names))]
				o.Blacklist(name)
				ref.Blacklist(name)
			}
			if o.Idle() != ref.Idle() {
				t.Fatalf("seed %d step %d: Idle = %v, reference %v", seed, step, o.Idle(), ref.Idle())
			}
			at, ok := o.NextWake()
			rat, rok := ref.NextWake()
			if at != rat || ok != rok {
				t.Fatalf("seed %d step %d: NextWake = %v,%v, reference %v,%v", seed, step, at, ok, rat, rok)
			}
		}
	}
}

// TestBlacklistAfterSpawn: blacklisting a name reclassifies processes
// already running under it, as the call-time lookup it replaced did,
// and a later spawn under the name starts blacklisted.
func TestBlacklistAfterSpawn(t *testing.T) {
	o := New()
	mon := o.Spawn("monitord", StateRunning)
	io := o.Spawn("monitord", StateBlockedIO)
	wd := o.Spawn("watchdog", StateSleeping)
	o.RegisterTimer(wd, 100)
	if o.Idle() {
		t.Fatal("running monitord is not blacklisted yet and must block suspension")
	}
	if at, ok := o.NextWake(); !ok || at != 100 {
		t.Fatalf("NextWake = %v,%v before blacklisting; want 100,true", at, ok)
	}
	o.Blacklist("monitord", "watchdog")
	if !o.Idle() {
		t.Fatal("blacklisting monitord after spawn must make the host idle")
	}
	if _, ok := o.NextWake(); ok {
		t.Fatal("watchdog blacklisted after spawn: its timer must be filtered")
	}
	o.SetState(mon, StateSleeping)
	o.SetState(mon, StateRunning)
	o.SetState(io, StateSleeping)
	if !o.Idle() {
		t.Fatal("state changes of a blacklisted process must not count as busy")
	}
	o.Spawn("monitord", StateRunning)
	if !o.Idle() {
		t.Fatal("a process spawned under a blacklisted name must start blacklisted")
	}
}
