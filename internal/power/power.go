// Package power models a server's ACPI power states and energy use.
//
// The paper's testbed machines (HP, Intel i7-3770) implement suspend to
// RAM (ACPI S3): a suspended host draws about 5 W, around 10 % of the
// idle S0 consumption (§VI-A-2). Active power is load-proportional
// between the idle floor and the peak. Transitions carry latencies: the
// paper measures a wake-triggered request at up to ~1500 ms with the
// naive resume path and ~800 ms with Drowsy-DC's optimized quick-resume
// work (§VI-A-3).
package power

import (
	"fmt"
	"slices"
)

// State is a host power state.
type State int

const (
	// StateActive is ACPI S0: the host runs VMs; power is
	// load-proportional.
	StateActive State = iota
	// StateSuspending is the transition into S3; the host still draws
	// idle-level power while saving device state.
	StateSuspending
	// StateSuspended is ACPI S3, suspend to RAM: only memory refresh and
	// the NIC (for Wake-on-LAN) are powered.
	StateSuspended
	// StateResuming is the transition out of S3 back to S0; the platform
	// briefly draws peak power while restoring devices.
	StateResuming
	// StateOff is ACPI S4/S5 (suspend to disk / powered off), used for
	// hosts emptied by consolidation.
	StateOff
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateSuspending:
		return "suspending"
	case StateSuspended:
		return "suspended"
	case StateResuming:
		return "resuming"
	case StateOff:
		return "off"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// legalTransitions encodes the state machine, indexed by the source
// state: a suspended host cannot jump to active without resuming, etc.
var legalTransitions = [NumStates][]State{
	StateActive:     {StateSuspending, StateOff},
	StateSuspending: {StateSuspended},
	StateSuspended:  {StateResuming, StateOff},
	StateResuming:   {StateActive},
	StateOff:        {StateResuming},
}

// CanTransition reports whether from → to is a legal state change.
func CanTransition(from, to State) bool {
	return from >= 0 && from < NumStates && slices.Contains(legalTransitions[from], to)
}

// Profile holds the electrical and temporal characteristics of a host.
type Profile struct {
	// IdleWatts is S0 power at zero load.
	IdleWatts float64
	// PeakWatts is S0 power at full load.
	PeakWatts float64
	// SuspendedWatts is S3 power (memory refresh + WoL NIC).
	SuspendedWatts float64
	// OffWatts is S4/S5 power (typically ~1-2 W for the BMC).
	OffWatts float64
	// SuspendLatency is the time to enter S3.
	SuspendLatency float64 // seconds
	// ResumeLatency is the time to leave S3 with the optimized resume
	// path ("our work on quick resume brings down the waking time to
	// 800ms").
	ResumeLatency float64 // seconds
	// NaiveResumeLatency is the unoptimized resume latency (~1500 ms
	// observed end-to-end in the paper).
	NaiveResumeLatency float64 // seconds
}

// DefaultProfile reproduces the paper's testbed host: idle ≈ 50 W so the
// 5 W suspended draw is the quoted "around 10 % of the consumption in
// idle S0 state"; the i7-3770 box peaks around 100 W under full load.
func DefaultProfile() Profile {
	return Profile{
		IdleWatts:          50,
		PeakWatts:          100,
		SuspendedWatts:     5,
		OffWatts:           1.5,
		SuspendLatency:     3.0,
		ResumeLatency:      0.8,
		NaiveResumeLatency: 1.5,
	}
}

// Validate checks physical sanity of the profile.
func (p Profile) Validate() error {
	switch {
	case p.IdleWatts <= 0 || p.PeakWatts < p.IdleWatts:
		return fmt.Errorf("power: peak %vW must exceed idle %vW > 0", p.PeakWatts, p.IdleWatts)
	case p.SuspendedWatts <= 0 || p.SuspendedWatts >= p.IdleWatts:
		return fmt.Errorf("power: suspended %vW must be in (0, idle)", p.SuspendedWatts)
	case p.OffWatts < 0 || p.OffWatts > p.SuspendedWatts:
		return fmt.Errorf("power: off %vW must be in [0, suspended]", p.OffWatts)
	case p.SuspendLatency < 0 || p.ResumeLatency <= 0 || p.NaiveResumeLatency < p.ResumeLatency:
		return fmt.Errorf("power: inconsistent latencies")
	}
	return nil
}

// Power returns the instantaneous draw in watts for a state and CPU
// utilization (only meaningful for StateActive; ignored otherwise).
func (p Profile) Power(s State, utilization float64) float64 {
	switch s {
	case StateActive:
		if utilization < 0 {
			utilization = 0
		}
		if utilization > 1 {
			utilization = 1
		}
		return p.IdleWatts + (p.PeakWatts-p.IdleWatts)*utilization
	case StateSuspending:
		return p.IdleWatts
	case StateSuspended:
		return p.SuspendedWatts
	case StateResuming:
		return p.PeakWatts
	case StateOff:
		return p.OffWatts
	default:
		panic(fmt.Sprintf("power: unknown state %v", s))
	}
}

// NumStates is the count of distinct power states, for per-state
// accounting arrays indexed by State.
const NumStates = 5

// Machine tracks a host's power state over simulated time and integrates
// its energy. All times are in seconds of simulated time.
type Machine struct {
	profile     Profile
	state       State
	since       float64 // time of last state change or sample
	util        float64 // current utilization while active
	joules      float64
	stateJoules [NumStates]float64 // joules split by the state they were drawn in
	suspSecs    float64            // cumulative seconds in StateSuspended
	offSecs     float64
	totalRef    float64 // creation time, for fraction computations
	transits    int     // number of suspend transitions (oscillation metric)
	resumes     int     // number of resume transitions
}

// NewMachine creates a machine in StateActive at time now.
func NewMachine(p Profile, now float64) *Machine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Machine{profile: p, state: StateActive, since: now, totalRef: now}
}

// State returns the current power state.
func (m *Machine) State() State { return m.state }

// Profile returns the machine's power profile.
func (m *Machine) Profile() Profile { return m.profile }

// SetUtilization updates the CPU utilization used for load-proportional
// power, accounting energy up to now first.
func (m *Machine) SetUtilization(now, util float64) {
	m.accumulate(now)
	m.util = util
}

// Transition moves the machine to a new state at time now, accounting
// the energy of the elapsed interval. Illegal transitions panic: they
// indicate a scheduling bug, not a runtime condition.
func (m *Machine) Transition(now float64, to State) {
	if !CanTransition(m.state, to) {
		panic(fmt.Sprintf("power: illegal transition %v -> %v", m.state, to))
	}
	m.accumulate(now)
	switch to {
	case StateSuspending:
		m.transits++
	case StateResuming:
		m.resumes++
	}
	m.state = to
}

// accumulate integrates energy from the last sample to now.
func (m *Machine) accumulate(now float64) {
	dt := now - m.since
	if dt < 0 {
		panic(fmt.Sprintf("power: time moved backwards (%v -> %v)", m.since, now))
	}
	e := m.profile.Power(m.state, m.util) * dt
	m.joules += e
	m.stateJoules[m.state] += e
	switch m.state {
	case StateSuspended:
		m.suspSecs += dt
	case StateOff:
		m.offSecs += dt
	}
	m.since = now
}

// Finish accounts energy up to the end of the simulation.
func (m *Machine) Finish(now float64) { m.accumulate(now) }

// LastAccounted returns the instant energy has been integrated up to
// (the floor for the machine's next transition or sample). Callers
// whose wake events can race a just-completed suspension — a scheduled
// WoL firing inside the suspend transition's tail — clamp their resume
// instant to it instead of tripping the backwards-time panic.
func (m *Machine) LastAccounted() float64 { return m.since }

// Joules returns the accumulated energy.
func (m *Machine) Joules() float64 { return m.joules }

// KWh returns the accumulated energy in kilowatt-hours.
func (m *Machine) KWh() float64 { return m.joules / 3.6e6 }

// SuspendedSeconds returns the cumulative time spent in S3.
func (m *Machine) SuspendedSeconds() float64 { return m.suspSecs }

// SuspendedFraction returns the fraction of the machine's lifetime spent
// suspended, with the lifetime ending at the last accounted instant.
func (m *Machine) SuspendedFraction() float64 {
	total := m.since - m.totalRef
	if total <= 0 {
		return 0
	}
	return m.suspSecs / total
}

// SuspendCount returns the number of suspend transitions (the
// oscillation-prevention metric of §IV).
func (m *Machine) SuspendCount() int { return m.transits }

// ResumeCount returns the number of resume transitions.
func (m *Machine) ResumeCount() int { return m.resumes }

// Snapshot is a read-only projection of a Machine's cumulative energy
// and transition ledger at an instant, for observe-only probes.
type Snapshot struct {
	// State is the power state at the snapshot instant.
	State State
	// Joules is total energy including the pending (not yet accumulated)
	// span up to the snapshot instant.
	Joules float64
	// StateJoules splits Joules by the state the energy was drawn in.
	StateJoules [NumStates]float64
	// Suspends and Resumes count transitions into StateSuspending and
	// StateResuming respectively.
	Suspends int
	Resumes  int
}

// SnapshotAt projects the machine's energy ledger to time now without
// mutating it: the span since the last accounted instant is integrated
// into a copy. Instants before the last accounted one (a transition
// ran past now, e.g. a lossy resume charged beyond an hour boundary)
// clamp to zero pending energy — the already-accounted ledger is the
// floor. Because nothing is written, interleaving snapshots with the
// simulation cannot perturb its float summation order: results with
// and without snapshots are bit-identical.
func (m *Machine) SnapshotAt(now float64) Snapshot {
	s := Snapshot{
		State:       m.state,
		Joules:      m.joules,
		StateJoules: m.stateJoules,
		Suspends:    m.transits,
		Resumes:     m.resumes,
	}
	if dt := now - m.since; dt > 0 {
		e := m.profile.Power(m.state, m.util) * dt
		s.Joules += e
		s.StateJoules[m.state] += e
	}
	return s
}

// MachineState is the complete serializable state of a Machine minus
// its profile (profiles are reconstructed from configuration at
// restore). It exists for deterministic run checkpoints: restoring it
// into a machine built from the same profile reproduces the energy
// ledger bit-for-bit, because every field below is copied verbatim —
// no recomputation, no rounding.
type MachineState struct {
	State       State
	Since       float64
	Util        float64
	Joules      float64
	StateJoules [NumStates]float64
	SuspSecs    float64
	OffSecs     float64
	TotalRef    float64
	Transits    int
	Resumes     int
}

// CheckpointState captures the machine's full mutable state.
func (m *Machine) CheckpointState() MachineState {
	return MachineState{
		State:       m.state,
		Since:       m.since,
		Util:        m.util,
		Joules:      m.joules,
		StateJoules: m.stateJoules,
		SuspSecs:    m.suspSecs,
		OffSecs:     m.offSecs,
		TotalRef:    m.totalRef,
		Transits:    m.transits,
		Resumes:     m.resumes,
	}
}

// RestoreState overwrites the machine's mutable state with a previously
// captured one. The profile is untouched: the caller guarantees the
// machine was built from the same profile the state was captured under.
// Invalid states are rejected rather than panicking — checkpoint bytes
// come from disk, not from the scheduler.
func (m *Machine) RestoreState(s MachineState) error {
	if s.State < StateActive || s.State > StateOff {
		return fmt.Errorf("power: restore with unknown state %d", s.State)
	}
	m.state = s.State
	m.since = s.Since
	m.util = s.Util
	m.joules = s.Joules
	m.stateJoules = s.StateJoules
	m.suspSecs = s.SuspSecs
	m.offSecs = s.OffSecs
	m.totalRef = s.TotalRef
	m.transits = s.Transits
	m.resumes = s.Resumes
	return nil
}
