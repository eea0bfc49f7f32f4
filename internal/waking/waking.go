// Package waking implements Drowsy-DC's waking module (§V): the
// component, colocated with the SDN switch of each rack, that resumes
// drowsy servers. Two event types trigger a resume:
//
//  1. an inbound network request whose destination VM lives on a
//     suspended server (detected by the switch's VM→MAC hashmap, §V-A);
//  2. a scheduled waking date registered by the suspending module before
//     the host went to sleep (§V-B), fired ahead of time by the resume
//     latency so the host is awake when the timer expires.
//
// §V also runs modules in mirrored pairs, so that a survivor takes over
// a dead peer's mappings. That pairing is not modeled: no experiment
// fails a module, so each rack has one module.
package waking

import (
	"drowsydc/internal/netsim"
	"drowsydc/internal/sim"
	"drowsydc/internal/simtime"
)

// Module is one waking module instance.
type Module struct {
	engine *sim.Engine
	wol    func(netsim.MAC)
	lead   simtime.Duration // wake this much ahead of the scheduled date

	sw    *netsim.Switch
	wakes netsim.MACTable[hostWake]

	// When a loss model is installed, every WoL the module fires is
	// resolved through it — retries, drops, relay legs — and the outcome
	// handed to deliver instead of the perfect wol callback.
	loss    *netsim.LossModel
	deliver func(netsim.MAC, netsim.WakeOutcome)

	scheduledWakes uint64
	packetWakes    uint64
}

// hostWake is one host's scheduled-wake state.
type hostWake struct {
	// timer is the queued ahead-of-time WoL, nil when none is pending.
	timer *sim.Timer
	// date is the registered waking date, meaningful while timer is set.
	date simtime.Time
}

// New creates a waking module. wol delivers Wake-on-LAN to a host; lead
// is the resume latency compensated when firing scheduled dates; vms is
// the VM→MAC table the module's switch records its mappings in.
func New(engine *sim.Engine, lead simtime.Duration, wol func(netsim.MAC), vms *netsim.Table) *Module {
	if wol == nil {
		panic("waking: nil WoL sender")
	}
	if lead < 0 {
		panic("waking: negative lead")
	}
	m := &Module{
		engine: engine,
		wol:    wol,
		lead:   lead,
	}
	m.sw = netsim.NewSwitch(m.fireWoL, vms)
	return m
}

// Switch exposes the module's packet path for the workload model.
func (m *Module) Switch() *netsim.Switch { return m.sw }

// HostSuspended registers a suspended host: its VMs' addresses map to
// its MAC, and when the suspending module computed a waking date, a WoL
// is scheduled lead seconds early. hasDate false means no valid timer
// existed (§V-B): the host sleeps until an external request.
func (m *Module) HostSuspended(mac netsim.MAC, vms []netsim.VMID, wakeAt simtime.Time, hasDate bool) {
	m.sw.MapSuspended(mac, vms)
	if hasDate {
		fireAt := wakeAt - simtime.Time(m.lead)
		if fireAt < m.engine.Now() {
			fireAt = m.engine.Now()
		}
		timer := m.engine.Schedule(fireAt, func(*sim.Engine) {
			m.scheduledWakes++
			*m.wakes.At(mac) = hostWake{}
			m.fireWoL(mac)
		})
		*m.wakes.At(mac) = hostWake{timer: timer, date: wakeAt}
	}
}

// HostResumed clears a host's mappings and pending schedule once it is
// awake again.
func (m *Module) HostResumed(mac netsim.MAC) {
	m.sw.UnmapHost(mac)
	if w := m.wakes.Get(mac); w.timer != nil {
		w.timer.Cancel()
		*m.wakes.At(mac) = hostWake{}
	}
}

// ScheduledFire returns the instant at which a host's pending
// scheduled wake is due to fire — the registered waking date minus the
// lead, clamped to the present — and whether one is pending. The
// sub-hourly event walk polls it so ahead-of-time WoLs land at their
// true second-scale instants instead of the next hour boundary (the
// only points the engine otherwise advances through).
func (m *Module) ScheduledFire(mac netsim.MAC) (simtime.Time, bool) {
	w := m.wakes.Get(mac)
	if !w.timer.Active() {
		return 0, false
	}
	fireAt := w.date - simtime.Time(m.lead)
	if fireAt < m.engine.Now() {
		fireAt = m.engine.Now()
	}
	return fireAt, true
}

// FireScheduled fires a host's pending scheduled wake immediately:
// the queued engine event is canceled, the wake is counted, and the
// WoL delivered. It reports whether a wake was pending. Callers decide
// the instant (the sub-hourly event walk clamps the machine's resume
// to ScheduledFire's time); firing through the engine at hour
// boundaries remains the default path.
func (m *Module) FireScheduled(mac netsim.MAC) bool {
	t := m.wakes.Get(mac).timer
	if !t.Active() {
		return false
	}
	t.Cancel()
	*m.wakes.At(mac) = hostWake{}
	m.scheduledWakes++
	m.fireWoL(mac)
	return true
}

// PacketArrived runs the packet analyzer for one inbound request and
// reports whether it woke a suspended host.
func (m *Module) PacketArrived(p netsim.Packet) bool {
	woke := m.sw.Route(p)
	if woke {
		m.packetWakes++
	}
	return woke
}

// SetDelivery routes the module's WoL path through a lossy delivery
// model: each fired wake is resolved into a WakeOutcome (attempts,
// drops, relay, delay) and handed to deliver. Both arguments nil
// restores the perfect callback; anything else requires both.
func (m *Module) SetDelivery(loss *netsim.LossModel, deliver func(netsim.MAC, netsim.WakeOutcome)) {
	if (loss == nil) != (deliver == nil) {
		panic("waking: SetDelivery requires both a loss model and a delivery callback, or neither")
	}
	m.loss, m.deliver = loss, deliver
}

// fireWoL delivers the WoL: straight to the perfect callback by
// default, or through the lossy delivery model when one is installed.
func (m *Module) fireWoL(mac netsim.MAC) {
	if m.loss == nil {
		m.wol(mac)
		return
	}
	m.deliver(mac, m.loss.Resolve(mac))
}

// Stats returns (scheduled wakes fired, packet wakes fired).
func (m *Module) Stats() (scheduled, packet uint64) {
	return m.scheduledWakes, m.packetWakes
}

// PendingWakeDate returns the registered waking date of a suspended
// host's scheduled wake (the raw date, not the lead-adjusted fire
// instant ScheduledFire reports) and whether one is pending. Run
// checkpoints capture it so a restored module can re-register the exact
// same schedule through HostSuspended.
func (m *Module) PendingWakeDate(mac netsim.MAC) (simtime.Time, bool) {
	w := m.wakes.Get(mac)
	if !w.timer.Active() {
		return 0, false
	}
	return w.date, true
}

// RestoreCounters overwrites the module's cumulative wake counters with
// previously captured values, for run checkpoints.
func (m *Module) RestoreCounters(scheduledWakes, packetWakes uint64) {
	m.scheduledWakes = scheduledWakes
	m.packetWakes = packetWakes
}
