// Package suspend implements Drowsy-DC's suspending module (§IV): the
// per-host agent that monitors idleness and takes the decision of
// suspending its host.
//
// It reads its host through the Host interface. On the simulated host
// OS of Figure 3 (internal/ossim) the host is idle when no
// non-blacklisted process is running or blocked on I/O — blacklisting
// covers the paper's false negatives (monitoring agents, kernel
// watchdogs), and blocked-on-I/O covers the first class of false
// positives. The second class (idle-looking VMs with open sessions) is
// deliberately not introspected, per the paper's design choice to
// support unmodified applications and rely on quick resume. The fleet
// runtime (internal/dcsim) checks only idle hours and idle gaps, so its
// hosts are always idle and their waking date is the earliest of their
// residents' hr-timers.
//
// An anti-oscillation grace time protects a freshly resumed host from
// immediately suspending again: between 5 s and 2 min, exponentially
// increasing as the host's idleness probability decreases, to be
// conservative with the quality of service of undetermined and active
// VMs.
//
// Before suspending, the module computes a waking date from the earliest
// non-blacklisted high-resolution timer (§V-B) and hands it to the
// waking module.
package suspend

import (
	"math"

	"drowsydc/internal/simtime"
)

// Grace-time bounds fixed empirically by the paper (§IV).
const (
	MinGrace = 5 * simtime.Second
	MaxGrace = 2 * simtime.Minute
)

// DecisionOverhead is the time the module takes to detect idleness and
// initiate suspension (process-table walk plus timer scan); the host
// stays awake for this long after becoming idle.
const DecisionOverhead = 1 * simtime.Second

// GraceTime maps a host's normalized idleness probability p ∈ [0, 1] to
// the anti-oscillation grace duration: MinGrace when the host is surely
// idle (p = 1), MaxGrace when surely active (p = 0), exponential in
// between ("exponentially increasing as the IP decreases").
func GraceTime(p float64) simtime.Duration {
	return GraceTimeMax(p, MaxGrace)
}

// GraceTimeMax is GraceTime with a configurable upper bound, the knob
// the paper's Figure-3-style sensitivity study sweeps. The curve keeps
// its shape — MinGrace at p = 1, max at p = 0, exponential in between —
// with max in place of the paper's 2-minute bound. A max below MinGrace
// clamps to MinGrace (a flat, minimal grace).
func GraceTimeMax(p float64, max simtime.Duration) simtime.Duration {
	if math.IsNaN(p) {
		panic("suspend: NaN probability")
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if max < MinGrace {
		max = MinGrace
	}
	ratio := float64(max) / float64(MinGrace)
	g := float64(MinGrace) * math.Pow(ratio, 1-p)
	d := simtime.Duration(math.Round(g))
	if d < MinGrace {
		d = MinGrace
	}
	if d > max {
		d = max
	}
	return d
}

// Config tunes a Monitor.
type Config struct {
	// UseGrace enables the anti-oscillation grace time. The paper's
	// Neat+S3 baseline runs "the exact same algorithm, the grace time
	// excepted, because it requires computing idleness models".
	UseGrace bool
	// MaxGrace overrides the grace-time upper bound (0 = the paper's
	// MaxGrace). Parameter sweeps vary it to regenerate the grace-time
	// sensitivity curve.
	MaxGrace simtime.Duration
}

// Decision is the outcome of a suspension check.
type Decision struct {
	// Suspend reports whether the host should be suspended now.
	Suspend bool
	// WakeAt is the scheduled waking date (valid when HasWake).
	WakeAt simtime.Time
	// HasWake is false when no non-blacklisted timer exists: the host
	// may sleep indefinitely until an external request (§V-B).
	HasWake bool
}

// Host is what the suspending module reads of its host.
type Host interface {
	// Idle reports whether no process of interest is running or
	// blocked on I/O.
	Idle() bool
	// NextWake returns the earliest non-blacklisted hr-timer (§V-B);
	// ok is false when there is none.
	NextWake() (at simtime.Time, ok bool)
}

// Monitor is the suspending module of one host.
type Monitor struct {
	cfg        Config
	host       Host
	graceUntil simtime.Time
	suspended  bool
	decisions  uint64
	vetoGrace  uint64
	vetoBusy   uint64
}

// NewMonitor creates a suspending module watching the given host.
func NewMonitor(cfg Config, host Host) *Monitor {
	if host == nil {
		panic("suspend: nil host")
	}
	if cfg.MaxGrace < 0 {
		panic("suspend: negative max grace")
	}
	if cfg.MaxGrace == 0 {
		cfg.MaxGrace = MaxGrace
	}
	return &Monitor{cfg: cfg, host: host}
}

// OnResume must be called when the host resumes (or first boots). It
// computes the grace period from the host's normalized idleness
// probability for the current interval.
func (m *Monitor) OnResume(now simtime.Time, hostProbability float64) {
	m.suspended = false
	if m.cfg.UseGrace {
		m.graceUntil = now.Add(GraceTimeMax(hostProbability, m.cfg.MaxGrace))
	} else {
		m.graceUntil = now
	}
}

// OnSuspend records that the suspension completed.
func (m *Monitor) OnSuspend() { m.suspended = true }

// Suspended reports the monitor's view of its host's state.
func (m *Monitor) Suspended() bool { return m.suspended }

// GraceUntil returns the end of the current grace period.
func (m *Monitor) GraceUntil() simtime.Time { return m.graceUntil }

// Check evaluates whether the host can be suspended at time now, and if
// so computes the waking date. It does not mutate host state; the caller
// drives the actual transition (and then calls OnSuspend).
func (m *Monitor) Check(now simtime.Time) Decision {
	m.decisions++
	if m.suspended {
		return Decision{}
	}
	if now < m.graceUntil {
		m.vetoGrace++
		return Decision{}
	}
	if !m.host.Idle() {
		m.vetoBusy++
		return Decision{}
	}
	d := Decision{Suspend: true}
	d.WakeAt, d.HasWake = m.host.NextWake()
	return d
}

// MonitorState is the complete serializable state of a Monitor minus
// its configuration and host handle (both reconstructed at restore), for
// deterministic run checkpoints.
type MonitorState struct {
	GraceUntil simtime.Time
	Suspended  bool
	Decisions  uint64
	VetoGrace  uint64
	VetoBusy   uint64
}

// CheckpointState captures the monitor's full mutable state.
func (m *Monitor) CheckpointState() MonitorState {
	return MonitorState{
		GraceUntil: m.graceUntil,
		Suspended:  m.suspended,
		Decisions:  m.decisions,
		VetoGrace:  m.vetoGrace,
		VetoBusy:   m.vetoBusy,
	}
}

// RestoreState overwrites the monitor's mutable state with a previously
// captured one. The caller guarantees the monitor was built with the
// configuration the state was captured under.
func (m *Monitor) RestoreState(s MonitorState) {
	m.graceUntil = s.GraceUntil
	m.suspended = s.Suspended
	m.decisions = s.Decisions
	m.vetoGrace = s.VetoGrace
	m.vetoBusy = s.VetoBusy
}
