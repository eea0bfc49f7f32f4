// Package ossim simulates the slice of a host operating system that the
// Drowsy-DC suspending module observes (§IV–V-B of the paper):
//
//   - a process table with run states, so the module can ask "is any
//     process of interest runnable or blocked on I/O?" — in O(1): the
//     table is indexed by PID, blacklisting is decided when a process
//     is spawned (or when its name is blacklisted later), and a count
//     of the non-blacklisted processes running or blocked on I/O is
//     kept as states change, so Idle reads one integer;
//   - the high-resolution timer queue the kernel keeps in a red-black
//     tree, which the paper walks with a helper kernel module to find
//     the earliest waking date (implemented here as a plain slice that
//     NextWake scans);
//   - a process blacklist covering the paper's false negatives
//     (monitoring agents, kernel watchdogs) so they neither block
//     suspension nor register waking dates.
//
// It is the OS of Figure 3's suspending-module experiments
// (internal/exp), each of which builds a fresh one: processes and
// timers live as long as their OS. The fleet runtime (internal/dcsim)
// keeps no OS, because none of its VM processes ever runs; it holds
// each hr-timer in its per-VM table instead.
//
// Because idleness is O(1), the decision path's cost grows only with
// the timer queue: Figure 3's decision-path scalability measures
// NextWake's timer scan alone.
//
// There is no scheduler-quantum accounting: the VM activity levels the
// idleness model learns from come from the workload traces
// (internal/trace) directly.
package ossim

import (
	"fmt"
	"slices"

	"drowsydc/internal/simtime"
)

// ProcState is a process run state.
type ProcState int

const (
	// StateSleeping: the process waits on a timer or event; it does not
	// prevent suspension.
	StateSleeping ProcState = iota
	// StateRunning: the process is on a run queue; the host is busy.
	StateRunning
	// StateBlockedIO: the process waits on a resource such as a disk
	// read. The paper counts this as a false positive for idleness: the
	// host must NOT be suspended while I/O is in flight.
	StateBlockedIO
)

// hrTimer is one entry in the kernel's high-resolution timer queue.
type hrTimer struct {
	at  simtime.Time
	pid int
}

// OS is a simulated host operating system. It is not safe for
// concurrent use.
type OS struct {
	// procs is the process table indexed by PID; entry 0 is unused, so
	// PIDs start at 1.
	procs []proc
	// busy counts the non-blacklisted processes that are running or
	// blocked on I/O: the host is idle exactly when it is zero.
	busy      int
	timers    []hrTimer
	blacklist []string
}

// proc is one process-table entry.
type proc struct {
	name        string
	state       ProcState
	blacklisted bool
}

// New creates an OS with an empty process table and timer queue.
func New() *OS { return &OS{procs: make([]proc, 1)} }

// Blacklist marks process names to be ignored by idleness checks and
// timer scans — the paper's monitoring daemons and kernel watchdogs.
// Processes already running under a newly blacklisted name are
// reclassified on the spot.
func (o *OS) Blacklist(names ...string) {
	for _, n := range names {
		if o.IsBlacklisted(n) {
			continue
		}
		o.blacklist = append(o.blacklist, n)
		for pid := 1; pid < len(o.procs); pid++ {
			if p := &o.procs[pid]; p.name == n {
				o.count(p, -1)
				p.blacklisted = true
			}
		}
	}
}

// IsBlacklisted reports whether a process name is blacklisted.
func (o *OS) IsBlacklisted(name string) bool { return slices.Contains(o.blacklist, name) }

// count adds d to the busy count when p is a busy, non-blacklisted
// process.
func (o *OS) count(p *proc, d int) {
	if !p.blacklisted && (p.state == StateRunning || p.state == StateBlockedIO) {
		o.busy += d
	}
}

// lookup returns the process with the given PID; unknown PIDs panic (a
// simulation wiring bug).
func (o *OS) lookup(pid int, op string) *proc {
	if pid <= 0 || pid >= len(o.procs) {
		panic(fmt.Sprintf("ossim: %s on unknown pid %d", op, pid))
	}
	return &o.procs[pid]
}

// Spawn adds a process and returns its PID.
func (o *OS) Spawn(name string, st ProcState) int {
	o.procs = append(o.procs, proc{name: name, state: st, blacklisted: o.IsBlacklisted(name)})
	pid := len(o.procs) - 1
	o.count(&o.procs[pid], 1)
	return pid
}

// SetState updates a process's run state; unknown PIDs panic.
func (o *OS) SetState(pid int, st ProcState) {
	p := o.lookup(pid, "SetState")
	o.count(p, -1)
	p.state = st
	o.count(p, 1)
}

// RegisterTimer adds a high-resolution timer owned by pid expiring at
// the given time, mirroring a sleeping process's wakeup registration;
// unknown PIDs panic.
func (o *OS) RegisterTimer(pid int, at simtime.Time) {
	o.lookup(pid, "RegisterTimer")
	o.timers = append(o.timers, hrTimer{at: at, pid: pid})
}

// Idle implements the suspending module's idleness check (§IV): the host
// is idle when no non-blacklisted process is running or blocked on I/O.
// Running blacklisted processes (monitoring, watchdogs) are the paper's
// false negatives and are ignored; blocked-on-I/O processes are the
// first kind of false positive and veto suspension.
func (o *OS) Idle() bool { return o.busy == 0 }

// NextWake scans the timer queue for the earliest timer registered by a
// non-blacklisted process (§V-B): the scheduled waking date. ok is false
// when no valid timer exists, meaning the host may sleep indefinitely
// until an external request arrives.
func (o *OS) NextWake() (at simtime.Time, ok bool) {
	// The queue is unordered, so walk all timers; the kernel-module
	// equivalent walks the rb-tree in order and can stop at the first
	// non-filtered entry.
	best := simtime.Time(0)
	found := false
	for _, tm := range o.timers {
		if o.procs[tm.pid].blacklisted {
			continue
		}
		if !found || tm.at < best {
			best = tm.at
			found = true
		}
	}
	return best, found
}
