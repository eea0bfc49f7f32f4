package ossim

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"drowsydc/internal/simtime"
)

// refOS is the map-backed process table the PID-indexed one replaced,
// kept as the reference its randomized equivalence test drives: PIDs
// are never reused, the blacklist is consulted at call time, and Idle
// scans every process.
type refOS struct {
	procs     map[int]*Process
	timers    []refTimer
	seq       uint64
	nextPID   int
	blacklist map[string]bool
}

type refTimer struct {
	at  simtime.Time
	pid int
	seq uint64
}

func newRefOS() *refOS {
	return &refOS{procs: map[int]*Process{}, blacklist: map[string]bool{}, nextPID: 1}
}

func (o *refOS) Blacklist(names ...string) {
	for _, n := range names {
		o.blacklist[n] = true
	}
}

func (o *refOS) Spawn(name string, st ProcState) int {
	pid := o.nextPID
	o.nextPID++
	o.procs[pid] = &Process{PID: pid, Name: name, State: st}
	return pid
}

func (o *refOS) Kill(pid int) {
	if _, ok := o.procs[pid]; !ok {
		return
	}
	delete(o.procs, pid)
	kept := o.timers[:0]
	for _, tm := range o.timers {
		if tm.pid != pid {
			kept = append(kept, tm)
		}
	}
	o.timers = kept
}

func (o *refOS) SetState(pid int, st ProcState) { o.procs[pid].State = st }

func (o *refOS) RegisterTimer(pid int, at simtime.Time) {
	o.timers = append(o.timers, refTimer{at: at, pid: pid, seq: o.seq})
	o.seq++
}

// PopExpired returns the expired timers' PIDs in (expiry, registration)
// order.
func (o *refOS) PopExpired(now simtime.Time) []int {
	sort.Slice(o.timers, func(i, j int) bool {
		if o.timers[i].at != o.timers[j].at {
			return o.timers[i].at < o.timers[j].at
		}
		return o.timers[i].seq < o.timers[j].seq
	})
	var pids []int
	for len(o.timers) > 0 && o.timers[0].at <= now {
		pids = append(pids, o.timers[0].pid)
		o.timers = o.timers[1:]
	}
	return pids
}

func (o *refOS) Idle() bool {
	for _, p := range o.procs {
		if o.blacklist[p.Name] {
			continue
		}
		if p.State == StateRunning || p.State == StateBlockedIO {
			return false
		}
	}
	return true
}

func (o *refOS) NextWake() (simtime.Time, bool) {
	best := simtime.Time(0)
	found := false
	for _, tm := range o.timers {
		p := o.procs[tm.pid]
		if p == nil || o.blacklist[p.Name] {
			continue
		}
		if !found || tm.at < best {
			best = tm.at
			found = true
		}
	}
	return best, found
}

func (o *refOS) Snapshot() []Process {
	out := make([]Process, 0, len(o.procs))
	for _, p := range o.procs {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// TestMatchesMapReference drives the PID-indexed table and the map
// reference through one seeded random sequence of spawns, kills
// (running processes included), state changes, timers, expiries and
// late blacklisting, comparing every query after every step. PIDs
// differ once the table reuses them, so processes are matched by the
// handles each side returned.
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
		var pids, refPIDs []int // live processes, matched by position
		toRef := map[int]int{}
		now := simtime.Time(0)
		for step := 0; step < 400; step++ {
			switch op := rng.IntN(20); {
			case op < 6 || len(pids) == 0:
				name, st := names[rng.IntN(len(names))], states[rng.IntN(len(states))]
				p, rp := o.Spawn(name, st), ref.Spawn(name, st)
				pids, refPIDs = append(pids, p), append(refPIDs, rp)
				toRef[p] = rp
			case op < 9:
				i := rng.IntN(len(pids))
				o.Kill(pids[i])
				ref.Kill(refPIDs[i])
				delete(toRef, pids[i])
				pids = append(pids[:i], pids[i+1:]...)
				refPIDs = append(refPIDs[:i], refPIDs[i+1:]...)
			case op < 14:
				i, st := rng.IntN(len(pids)), states[rng.IntN(len(states))]
				o.SetState(pids[i], st)
				ref.SetState(refPIDs[i], st)
			case op < 18:
				i, at := rng.IntN(len(pids)), now+simtime.Time(rng.IntN(500))
				o.RegisterTimer(pids[i], at)
				ref.RegisterTimer(refPIDs[i], at)
			case op < 19:
				now += simtime.Time(rng.IntN(200))
				got, want := o.PopExpired(now), ref.PopExpired(now)
				for i := range got {
					got[i] = toRef[got[i]]
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: PopExpired = %v, reference %v", seed, step, got, want)
				}
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
			if o.NumProcesses() != len(ref.procs) || o.NumTimers() != len(ref.timers) {
				t.Fatalf("seed %d step %d: %d processes and %d timers, reference %d and %d", seed, step,
					o.NumProcesses(), o.NumTimers(), len(ref.procs), len(ref.timers))
			}
			snap := o.Snapshot()
			for i := range snap {
				snap[i].PID = toRef[snap[i].PID]
			}
			sort.Slice(snap, func(i, j int) bool { return snap[i].PID < snap[j].PID })
			if want := ref.Snapshot(); !reflect.DeepEqual(snap, want) {
				t.Fatalf("seed %d step %d: Snapshot = %+v, reference %+v", seed, step, snap, want)
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
	o.Kill(io)
	if !o.Idle() {
		t.Fatal("state changes of a blacklisted process must not count as busy")
	}
	o.Spawn("monitord", StateRunning)
	if !o.Idle() {
		t.Fatal("a process spawned under a blacklisted name must start blacklisted")
	}
}

// TestKillRunningProcess: killing the only busy process makes the host
// idle, and its PID, reused by the next spawn, starts clean.
func TestKillRunningProcess(t *testing.T) {
	o := New()
	o.Spawn("svc", StateSleeping)
	busy := o.Spawn("svc", StateRunning)
	o.RegisterTimer(busy, 50)
	if o.Idle() {
		t.Fatal("running process must block suspension")
	}
	o.Kill(busy)
	if !o.Idle() {
		t.Fatal("killing the running process must make the host idle")
	}
	if _, ok := o.NextWake(); ok || o.NumTimers() != 0 {
		t.Fatal("killing the process must drop its timer")
	}
	again := o.Spawn("svc", StateSleeping)
	if p, ok := o.Process(again); !ok || p.State != StateSleeping || !o.Idle() {
		t.Fatalf("respawn = %+v,%v idle=%v; want a sleeping process and an idle host", p, ok, o.Idle())
	}
}
