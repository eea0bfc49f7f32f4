// The flight-recorder probe: an observe-only per-hour hook on the
// simulation runtime. A Probe sees one HourSample per simulated hour —
// host state census, energy deltas split by power state, transition and
// wake counters — computed from read-only projections of the runtime's
// own ledgers, merged in fixed shard order. The hook is nil-guarded at
// a single branch per hour: a run with Config.Probe == nil executes the
// exact instruction stream it executed before the hook existed, and a
// run with a probe attached produces a bit-identical Result, because
// nothing the probe reads is mutated by reading it.
package dcsim

import (
	"drowsydc/internal/metrics"
	"drowsydc/internal/power"
	"drowsydc/internal/simtime"
)

// Probe observes a run hour by hour. ObserveHour is called once per
// simulated hour, after the hour's boundary events (due scheduled
// wakes) have fired, from the runtime's serial phase — implementations
// need no internal locking against the run itself, but a probe shared
// across concurrent runs must synchronize. Implementations must treat
// the sample as read-only telemetry: the runtime's behaviour is
// independent of anything a probe does.
type Probe interface {
	ObserveHour(HourSample)
}

// HourSample is one simulated hour of a run as seen by a Probe. Counter
// fields are deltas for that hour; census fields are the state at the
// hour's end. All fields are deterministic — two runs of the same
// configuration produce identical sample streams at any shard-worker
// count — except the *Nanos phase timings, which are wall-clock and
// populated only when Config.ProbeTimings is set.
type HourSample struct {
	// Hour is the calendar hour the sample covers; Index is its 0-based
	// position within the run.
	Hour  simtime.Hour
	Index int

	// Host census at the hour's end: awake (active or resuming),
	// suspended (suspending or in S3) and powered-off hosts. The three
	// always sum to the fleet size.
	AwakeHosts     int
	SuspendedHosts int
	OffHosts       int

	// Energy drawn this hour, split by the power state it was drawn in.
	// TransitionJoules combines the suspending and resuming states.
	ActiveJoules     float64
	TransitionJoules float64
	SuspendedJoules  float64
	OffJoules        float64
	// WakePathJoules is the hour's share of the lossy wake path's
	// energy: retransmissions, recoveries, relay legs and the relay
	// standing draw. Zero when the run has no network model.
	WakePathJoules float64

	// Suspend/resume transitions entered this hour.
	Suspends int
	Resumes  int

	// Wake-module activity this hour: ahead-of-time scheduled WoLs and
	// packet wakes (first request of an active hour).
	ScheduledWakes uint64
	PacketWakes    uint64

	// Lossy-delivery outcomes this hour (zero under perfect delivery):
	// magic-packet transmissions, retransmissions, transactions lost
	// outright, and transactions carried by a subnet relay.
	WakeAttempts uint64
	WakeRetries  uint64
	LostWakes    uint64
	RelayedWakes uint64

	// Requests recorded this hour and how many of them violated the SLA.
	Requests      int64
	SLAViolations int64

	// EventHours counts (host, hour) pairs simulated at event
	// granularity this hour.
	EventHours int

	// PairEvaluations is the hour's consolidation pair-search effort
	// (scored + bound-pruned pairs), when the policy exposes it (Oasis);
	// zero otherwise.
	PairEvaluations uint64

	// Wall-clock phase timings of the hour's executor phases (serial
	// pre-phase, parallel host phase, parallel observation phase, serial
	// reduction). Populated only when Config.ProbeTimings is set; they
	// are the one non-deterministic part of a sample.
	PrePhaseNanos     int64
	HostPhaseNanos    int64
	ObservePhaseNanos int64
	ReducePhaseNanos  int64
}

// probeTotals is the cumulative ledger the per-hour deltas are computed
// against. Every field is a run-to-date total merged in fixed shard
// order (and host order within a shard), so the subtraction that forms
// a sample is deterministic.
type probeTotals struct {
	stateJoules [power.NumStates]float64
	suspends    int
	resumes     int
	scheduled   uint64
	packet      uint64
	wake        metrics.WakeStats
	requests    int64
	withinSLA   int64
	eventHours  int
	pairEvals   uint64
}

// PlacementProbe is an optional Probe extension: a probe that also
// implements it receives, right after each hour's sample, the hour's
// placement — hosts[i] is the host ID of the run's i'th VM (the
// cluster's initial VMs, then the scheduled arrivals: Result's
// PerVMMigrations order), or -1 while that VM is unplaced, not yet
// created or departed. The slice is reused across hours, so a probe
// must not retain it. Figure 2's colocation matrix is recorded this way.
type PlacementProbe interface {
	ObservePlacement(hosts []int)
}

// pairEvaluator is the optional policy surface the probe reads
// consolidation search effort from (implemented by oasis.Policy).
type pairEvaluator interface {
	PairEvaluations() uint64
}

// probeHour emits the sample for hour index i (calendar hour hr). It
// runs in the serial gap after the hour's boundary events have fired:
// either at the top of the next iteration (right after the engines
// advanced to the boundary) or, for the final hour, after the closing
// RunUntil. Everything it touches is a read-only projection — machine
// snapshots, cumulative module counters — so attaching a probe cannot
// perturb the simulation.
func (r *Runner) probeHour(i int, hr simtime.Hour) {
	hourEnd := float64((hr + 1).Start())
	var cur probeTotals
	var awake, susp, off int
	for _, sh := range r.shards {
		for _, rt := range sh.hosts {
			snap := rt.machine.SnapshotAt(hourEnd)
			for s := 0; s < power.NumStates; s++ {
				cur.stateJoules[s] += snap.StateJoules[s]
			}
			cur.suspends += snap.Suspends
			cur.resumes += snap.Resumes
			switch snap.State {
			case power.StateActive, power.StateResuming:
				awake++
			case power.StateSuspending, power.StateSuspended:
				susp++
			case power.StateOff:
				off++
			}
		}
		scheduled, packet := sh.wm.Stats()
		cur.scheduled += scheduled
		cur.packet += packet
		cur.wake.Merge(sh.wake)
		cur.requests += sh.latency.Count()
		cur.withinSLA += sh.latency.WithinSLA()
		cur.eventHours += sh.eventHours
	}
	if pe, ok := r.policy.(pairEvaluator); ok {
		cur.pairEvals = pe.PairEvaluations()
	}

	prev := &r.probePrev
	s := HourSample{
		Hour:  hr,
		Index: i,

		AwakeHosts:     awake,
		SuspendedHosts: susp,
		OffHosts:       off,

		ActiveJoules: cur.stateJoules[power.StateActive] - prev.stateJoules[power.StateActive],
		TransitionJoules: (cur.stateJoules[power.StateSuspending] - prev.stateJoules[power.StateSuspending]) +
			(cur.stateJoules[power.StateResuming] - prev.stateJoules[power.StateResuming]),
		SuspendedJoules: cur.stateJoules[power.StateSuspended] - prev.stateJoules[power.StateSuspended],
		OffJoules:       cur.stateJoules[power.StateOff] - prev.stateJoules[power.StateOff],
		WakePathJoules:  cur.wake.PathJoules - prev.wake.PathJoules,

		Suspends: cur.suspends - prev.suspends,
		Resumes:  cur.resumes - prev.resumes,

		ScheduledWakes: cur.scheduled - prev.scheduled,
		PacketWakes:    cur.packet - prev.packet,

		WakeAttempts: cur.wake.Attempts - prev.wake.Attempts,
		WakeRetries:  cur.wake.Retries - prev.wake.Retries,
		LostWakes:    cur.wake.LostWakes - prev.wake.LostWakes,
		RelayedWakes: cur.wake.RelayedWakes - prev.wake.RelayedWakes,

		Requests:      cur.requests - prev.requests,
		SLAViolations: (cur.requests - cur.withinSLA) - (prev.requests - prev.withinSLA),

		EventHours: cur.eventHours - prev.eventHours,

		PairEvaluations: cur.pairEvals - prev.pairEvals,
	}
	if r.net != nil {
		// The relay standing draw accrues per hour regardless of wake
		// traffic; collect() charges it once for the whole horizon, the
		// probe spreads it evenly.
		s.WakePathJoules += 3600 * float64(len(r.netCfg.RelaySubnets)) * r.netCfg.RelayWatts
	}
	if r.cfg.ProbeTimings {
		s.PrePhaseNanos = r.phaseNanos[0]
		s.HostPhaseNanos = r.phaseNanos[1]
		s.ObservePhaseNanos = r.phaseNanos[2]
		s.ReducePhaseNanos = r.phaseNanos[3]
	}
	r.probePrev = cur
	r.cfg.Probe.ObserveHour(s)
	if pp, ok := r.cfg.Probe.(PlacementProbe); ok {
		pp.ObservePlacement(r.assignmentsAll())
	}
}
