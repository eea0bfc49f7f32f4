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
//     the earliest waking date (implemented here as a binary heap —
//     same ordered-extraction semantics, simpler code);
//   - a process blacklist covering the paper's false negatives
//     (monitoring agents, kernel watchdogs) so they neither block
//     suspension nor register waking dates.
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
	"container/heap"
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

// String names the state.
func (s ProcState) String() string {
	switch s {
	case StateSleeping:
		return "sleeping"
	case StateRunning:
		return "running"
	case StateBlockedIO:
		return "blocked-io"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Process is one entry of the simulated process table.
type Process struct {
	PID   int
	Name  string
	State ProcState
}

// hrTimer is one entry in the kernel's high-resolution timer queue.
type hrTimer struct {
	at    simtime.Time
	pid   int
	seq   uint64
	index int
}

type timerHeap []*hrTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	tm := x.(*hrTimer)
	tm.index = len(*h)
	*h = append(*h, tm)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	tm.index = -1
	*h = old[:n-1]
	return tm
}

// OS is a simulated host operating system. It is not safe for concurrent
// use; each simulated host owns one and is driven by the single-threaded
// event engine.
type OS struct {
	// procs is the process table indexed by PID; an entry whose PID is
	// 0 is free (entry 0 always is). A killed process's PID goes on
	// free and is reused by a later Spawn, most recently freed first,
	// so the table is as long as the most processes ever alive at once,
	// not as the spawns of a whole run.
	procs []proc
	free  []int
	// busy counts the live, non-blacklisted processes that are running
	// or blocked on I/O: the host is idle exactly when it is zero.
	busy      int
	timers    timerHeap
	seq       uint64
	blacklist []string
}

// proc is one process-table entry.
type proc struct {
	Process
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
		for pid := range o.procs {
			if p := &o.procs[pid]; p.PID != 0 && p.Name == n {
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
	if !p.blacklisted && (p.State == StateRunning || p.State == StateBlockedIO) {
		o.busy += d
	}
}

// lookup returns the live process with the given PID, or nil.
func (o *OS) lookup(pid int) *proc {
	if pid <= 0 || pid >= len(o.procs) || o.procs[pid].PID == 0 {
		return nil
	}
	return &o.procs[pid]
}

// Spawn adds a process and returns its PID.
func (o *OS) Spawn(name string, st ProcState) int {
	pid := len(o.procs)
	if n := len(o.free); n > 0 {
		pid = o.free[n-1]
		o.free = o.free[:n-1]
	} else {
		o.procs = append(o.procs, proc{})
	}
	p := &o.procs[pid]
	*p = proc{Process: Process{PID: pid, Name: name, State: st}, blacklisted: o.IsBlacklisted(name)}
	o.count(p, 1)
	return pid
}

// Kill removes a process and its pending timers.
func (o *OS) Kill(pid int) {
	p := o.lookup(pid)
	if p == nil {
		return
	}
	o.count(p, -1)
	*p = proc{}
	o.free = append(o.free, pid)
	// Remove the dead process's timers lazily: rebuild without them.
	kept := o.timers[:0]
	for _, tm := range o.timers {
		if tm.pid != pid {
			kept = append(kept, tm)
		}
	}
	o.timers = kept
	heap.Init(&o.timers)
}

// Process returns a copy of the process with the given PID and whether
// it is alive.
func (o *OS) Process(pid int) (Process, bool) {
	if p := o.lookup(pid); p != nil {
		return p.Process, true
	}
	return Process{}, false
}

// NumProcesses returns the process count.
func (o *OS) NumProcesses() int { return len(o.procs) - 1 - len(o.free) }

// NumTimers returns the number of registered timers.
func (o *OS) NumTimers() int { return len(o.timers) }

// SetState updates a process's run state; unknown PIDs panic (a
// simulation wiring bug).
func (o *OS) SetState(pid int, st ProcState) {
	p := o.lookup(pid)
	if p == nil {
		panic(fmt.Sprintf("ossim: SetState on unknown pid %d", pid))
	}
	o.count(p, -1)
	p.State = st
	o.count(p, 1)
}

// RegisterTimer adds a high-resolution timer owned by pid expiring at
// the given time, mirroring a sleeping process's wakeup registration.
func (o *OS) RegisterTimer(pid int, at simtime.Time) {
	if o.lookup(pid) == nil {
		panic(fmt.Sprintf("ossim: RegisterTimer on unknown pid %d", pid))
	}
	heap.Push(&o.timers, &hrTimer{at: at, pid: pid, seq: o.seq})
	o.seq++
}

// PopExpired removes and returns the PIDs of timers expiring at or
// before now, in expiry order.
func (o *OS) PopExpired(now simtime.Time) []int {
	var pids []int
	for len(o.timers) > 0 && o.timers[0].at <= now {
		tm := heap.Pop(&o.timers).(*hrTimer)
		pids = append(pids, tm.pid)
	}
	return pids
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
	// The underlying heap is only ordered at the root, so walk all
	// timers; the kernel-module equivalent walks the rb-tree in order
	// and can stop at the first non-filtered entry, but the queue is
	// small and this keeps the heap invariant untouched. Kill drops a
	// process's timers, so every timer's owner is alive.
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

// Snapshot returns the live processes in PID order, for experiment
// logs.
func (o *OS) Snapshot() []Process {
	out := make([]Process, 0, o.NumProcesses())
	for _, p := range o.procs {
		if p.PID != 0 {
			out = append(out, p.Process)
		}
	}
	return out
}
