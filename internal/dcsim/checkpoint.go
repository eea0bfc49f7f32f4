package dcsim

import (
	"fmt"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/cluster"
	"drowsydc/internal/metrics"
	"drowsydc/internal/netsim"
	"drowsydc/internal/power"
	"drowsydc/internal/simtime"
	"drowsydc/internal/suspend"
)

// captureState snapshots the complete run state at the boundary of hour
// hr (every hour below hr simulated, none at or above). It runs in the
// serial phase — hour boundaries are the only instants the shards'
// state is globally consistent. It captures no policy state:
// ResumeRunner replays the hourly recorder's last call, which restores
// the one hour of utilization Neat's overload detector reads, and
// oasis rebuilds its idle rings from traces.
//
// Every VM's model is encoded into one arena sized by the models'
// EncodedLen, and each VMState.Model is a capped sub-slice of it, so
// the models cost one allocation per capture, not one per VM.
func (r *Runner) captureState(hr simtime.Hour) *checkpoint.RunState {
	vms, hosts := r.cluster.VMs(), r.cluster.Hosts()
	st := &checkpoint.RunState{
		Hour:          int64(hr),
		StartHour:     int64(r.cfg.StartHour),
		HorizonHours:  int64(r.cfg.Hours),
		Policy:        r.policy.Name(),
		Migrations:    int64(r.cluster.Migrations()),
		MigrationSecs: r.cluster.MigrationSeconds(),
		VMs:           make([]checkpoint.VMState, len(vms)),
		Hosts:         make([]checkpoint.HostState, len(hosts)),
		Shards:        make([]checkpoint.ShardState, 0, len(r.shards)),
	}
	size := 0
	for _, v := range vms {
		size += v.Model.EncodedLen()
	}
	arena := make([]byte, 0, size)
	for i, v := range vms {
		vs := &st.VMs[i]
		vs.ID, vs.Migrations = int32(v.ID), int32(v.Migrations())
		if vr := r.vms[v.Slot()]; vr.hasTimer {
			vs.HasTimer = true
			vs.TimerAt = int64(vr.timerAt)
		}
		start := len(arena)
		var err error
		if arena, err = v.Model.AppendBinary(arena); err != nil {
			panic(fmt.Sprintf("dcsim: VM %d model checkpoint: %v", v.ID, err))
		}
		vs.Model = arena[start:len(arena):len(arena)]
	}
	// Every resident is a registry VM, so the hosts' resident lists fit
	// in one slice of len(vms) IDs.
	ids := make([]int32, 0, len(vms))
	for i, h := range hosts {
		rt := r.hosts[i]
		ms := rt.machine.CheckpointState()
		mon := rt.monitor.CheckpointState()
		hs := &st.Hosts[i]
		*hs = checkpoint.HostState{
			ID:           int32(h.ID),
			PState:       uint8(ms.State),
			Since:        ms.Since,
			Util:         ms.Util,
			Joules:       ms.Joules,
			StateJoules:  ms.StateJoules,
			SuspSecs:     ms.SuspSecs,
			OffSecs:      ms.OffSecs,
			TotalRef:     ms.TotalRef,
			Transits:     int64(ms.Transits),
			Resumes:      int64(ms.Resumes),
			GraceUntil:   int64(mon.GraceUntil),
			MonSuspended: mon.Suspended,
			Decisions:    mon.Decisions,
			VetoGrace:    mon.VetoGrace,
			VetoBusy:     mon.VetoBusy,
			ResumedAt:    int64(rt.resumedAt),
		}
		if resident := h.VMs(); len(resident) > 0 {
			start := len(ids)
			for _, v := range resident {
				ids = append(ids, int32(v.ID))
			}
			hs.VMIDs = ids[start:len(ids):len(ids)]
		}
		if at, ok := rt.sh.wm.PendingWakeDate(netsim.MAC(h.ID)); ok {
			hs.HasWake = true
			hs.WakeAt = int64(at)
		}
	}
	for _, sh := range r.shards {
		scheduled, packet := sh.wm.Stats()
		st.Shards = append(st.Shards, checkpoint.ShardState{
			Latency:        sh.latency.Export(),
			WakeLatency:    sh.wakeLatency.Export(),
			ScheduledWakes: scheduled,
			PacketWakes:    packet,
			WakeAttempts:   sh.wake.Attempts,
			WakeRetries:    sh.wake.Retries,
			LostWakes:      sh.wake.LostWakes,
			RelayedWakes:   sh.wake.RelayedWakes,
			LostSLASeconds: sh.wake.LostSLASeconds,
			PathJoules:     sh.wake.PathJoules,
			EventHours:     int64(sh.eventHours),
		})
	}
	if r.net != nil {
		st.HasNet = true
		st.NetSerials = r.net.Serials()
	}
	// Departures at hr play after the capture, so the consumed ones are
	// exactly those scheduled before it.
	for _, d := range r.cfg.Departures {
		if d.At < hr {
			st.Departed = append(st.Departed, checkpoint.DepartedVM{
				ID: int32(d.VM.ID), Migrations: int32(d.VM.Migrations()),
			})
		}
	}
	return st
}

// ResumeRunner builds a runner that continues a checkpointed run. c
// must be the pristine initial cluster of the original run (same VMs,
// hosts, traces and IDs — scenario materialization is deterministic,
// so re-materializing the cell reproduces it), cfg the original
// configuration, and st a state captured by that run. The resumed run's
// Result is bit-identical to the straight-through run at any
// ShardWorkers count.
//
// A resumed run cannot carry a Probe: per-hour samples before the
// checkpoint are gone, and the flight recorder (or a placement probe's
// colocation matrix) would silently report a truncated history. It is
// rejected with an error, not silently dropped. Nor can it restore a
// policy state blob: captureState writes none, and no policy reads one.
func ResumeRunner(cfg Config, c *cluster.Cluster, policy cluster.Policy, st *checkpoint.RunState) (*Runner, error) {
	if cfg.Probe != nil {
		return nil, fmt.Errorf("dcsim: a resumed run cannot attach a probe")
	}
	if st.Policy != policy.Name() {
		return nil, fmt.Errorf("dcsim: checkpoint from policy %q cannot resume policy %q", st.Policy, policy.Name())
	}
	if len(st.PolicyState) > 0 {
		return nil, fmt.Errorf("dcsim: checkpoint carries %d bytes of policy state, which policy %q cannot restore",
			len(st.PolicyState), policy.Name())
	}
	if int64(cfg.StartHour) != st.StartHour || int64(cfg.Hours) != st.HorizonHours {
		return nil, fmt.Errorf("dcsim: checkpoint from a [%d,+%d) run cannot resume a [%d,+%d) run",
			st.StartHour, st.HorizonHours, cfg.StartHour, cfg.Hours)
	}
	idx := st.Hour - st.StartHour
	if idx <= 0 || idx >= st.HorizonHours {
		return nil, fmt.Errorf("dcsim: checkpoint hour %d outside run (%d,+%d)", st.Hour, st.StartHour, st.HorizonHours)
	}
	r := NewRunner(cfg, c, policy)
	hr := simtime.Hour(st.Hour)
	t0 := hr.Start()
	// Advance the shard engines to the boundary: at capture time every
	// event due at or before t0 had fired, so the queues were empty of
	// past work and only the clock needs to move.
	for _, sh := range r.shards {
		sh.engine.RunUntil(t0)
	}
	// Replay the membership changes of the consumed arrival/departure
	// schedule. Placements are not replayed — they come verbatim from
	// the serialized host assignment below.
	rest := r.pending[:0]
	for _, a := range r.pending {
		if a.At < hr {
			c.AddVM(a.VM)
		} else {
			rest = append(rest, a)
		}
	}
	r.pending = rest
	remaining := r.departs[:0]
	var departed []*cluster.VM
	for _, d := range r.departs {
		if d.At < hr {
			c.Remove(d.VM)
			departed = append(departed, d.VM)
		} else {
			remaining = append(remaining, d)
		}
	}
	r.departs = remaining
	// A departed VM's migration count is in its result entry, and only
	// the checkpoint still holds it.
	if len(st.Departed) != len(departed) {
		return nil, fmt.Errorf("dcsim: checkpoint lists %d departed VMs, the schedule replays %d departures",
			len(st.Departed), len(departed))
	}
	for i, v := range departed {
		if d := st.Departed[i]; int(d.ID) != v.ID {
			return nil, fmt.Errorf("dcsim: checkpoint departure %d is VM %d, the schedule replays VM %d", i, d.ID, v.ID)
		}
		v.RestoreMigrations(int(st.Departed[i].Migrations))
	}

	// The serialized VM set must match the reconstructed registry
	// exactly; its order then becomes the registry order (arrivals
	// appended hour by hour, departures spliced out — policy-visible).
	byID := make(map[int]*cluster.VM, len(c.VMs()))
	for _, v := range c.VMs() {
		byID[v.ID] = v
	}
	if len(st.VMs) != len(c.VMs()) {
		return nil, fmt.Errorf("dcsim: checkpoint holds %d VMs, the schedule reconstructs %d", len(st.VMs), len(c.VMs()))
	}
	ordered := make([]*cluster.VM, len(st.VMs))
	vsOf := make(map[int]*checkpoint.VMState, len(st.VMs))
	for i := range st.VMs {
		vs := &st.VMs[i]
		id := int(vs.ID)
		if _, dup := vsOf[id]; dup {
			return nil, fmt.Errorf("dcsim: checkpoint holds VM %d twice", id)
		}
		v, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("dcsim: checkpoint VM %d is not in the reconstructed registry", id)
		}
		vsOf[id] = vs
		ordered[i] = v
		if err := v.Model.UnmarshalBinary(vs.Model); err != nil {
			return nil, fmt.Errorf("dcsim: VM %d model: %w", id, err)
		}
		v.RestoreMigrations(int(vs.Migrations))
	}
	c.RestorePopulation(ordered)

	if len(st.Hosts) != len(c.Hosts()) {
		return nil, fmt.Errorf("dcsim: checkpoint holds %d hosts, the cluster has %d", len(st.Hosts), len(c.Hosts()))
	}
	for i, h := range c.Hosts() {
		hs := &st.Hosts[i]
		if int(hs.ID) != h.ID {
			return nil, fmt.Errorf("dcsim: checkpoint host %d at index %d, cluster has host %d", hs.ID, i, h.ID)
		}
		rt := r.hosts[i]
		// Re-place residents in serialized host-local order: utilization
		// sums and probability means iterate residency order, so it must
		// be reproduced, not merely made set-equal.
		for _, id := range hs.VMIDs {
			v, ok := byID[int(id)]
			if !ok {
				return nil, fmt.Errorf("dcsim: host %d holds unknown VM %d", hs.ID, id)
			}
			if err := c.Place(v, h); err != nil {
				return nil, fmt.Errorf("dcsim: restore placement of VM %d on host %d: %w", id, hs.ID, err)
			}
			// The VM's hr-timer, expired or not, goes back into its
			// entry: the hour's refresh keeps or replaces it exactly as
			// the straight-through run's did, and derives the host's
			// waking date from the entries.
			if vs := vsOf[int(id)]; vs.HasTimer {
				vr := &r.vms[v.Slot()]
				vr.timerAt, vr.hasTimer = simtime.Time(vs.TimerAt), true
			}
		}
		if err := rt.machine.RestoreState(power.MachineState{
			State:       power.State(hs.PState),
			Since:       hs.Since,
			Util:        hs.Util,
			Joules:      hs.Joules,
			StateJoules: hs.StateJoules,
			SuspSecs:    hs.SuspSecs,
			OffSecs:     hs.OffSecs,
			TotalRef:    hs.TotalRef,
			Transits:    int(hs.Transits),
			Resumes:     int(hs.Resumes),
		}); err != nil {
			return nil, fmt.Errorf("dcsim: host %d machine: %w", hs.ID, err)
		}
		rt.monitor.RestoreState(suspend.MonitorState{
			GraceUntil: simtime.Time(hs.GraceUntil),
			Suspended:  hs.MonSuspended,
			Decisions:  hs.Decisions,
			VetoGrace:  hs.VetoGrace,
			VetoBusy:   hs.VetoBusy,
		})
		rt.resumedAt = simtime.Time(hs.ResumedAt)
		switch power.State(hs.PState) {
		case power.StateActive, power.StateOff:
		case power.StateSuspended:
			// Re-register the sleeper with its waking module: the switch's
			// VM→MAC mappings always reflect residency at suspension (a
			// migration endpoint is woken first), so current residency is
			// exact; a pending waking date re-queues the ahead-of-time WoL
			// at its original fire instant (still in the future — it would
			// have fired before the boundary otherwise).
			rt.sh.wm.HostSuspended(netsim.MAC(h.ID), vmAddrs(nil, h), simtime.Time(hs.WakeAt), hs.HasWake)
		default:
			return nil, fmt.Errorf("dcsim: host %d checkpointed mid-transition (power state %d)", hs.ID, hs.PState)
		}
		if hs.HasWake && power.State(hs.PState) != power.StateSuspended {
			return nil, fmt.Errorf("dcsim: host %d has a pending wake but is not suspended", hs.ID)
		}
	}
	// Every serialized timer must have found its VM placed: the runtime
	// only keeps timers for placed VMs.
	for i := range st.VMs {
		if st.VMs[i].HasTimer && ordered[i].Host() == nil {
			return nil, fmt.Errorf("dcsim: VM %d has a timer but no host", st.VMs[i].ID)
		}
	}
	// Replay the hourly recorder's last call. The host phase handed it
	// each host's utilization for hour hr−1 under the placements just
	// restored, and that quotient is Host.Utilization's own result, bit
	// for bit (TestRecordHourGetsHostUtilization), so the recorder sees
	// the table it saw in the straight-through run.
	if rec, ok := policy.(cluster.HourRecorder); ok {
		for i, h := range c.Hosts() {
			r.util[i] = h.Utilization(hr - 1)
		}
		rec.RecordHour(c, hr-1, r.util)
	}

	if len(st.Shards) != len(r.shards) {
		return nil, fmt.Errorf("dcsim: checkpoint holds %d shards, the fleet partitions into %d (span %d)",
			len(st.Shards), len(r.shards), r.cfg.ShardHostSpan)
	}
	for i, sh := range r.shards {
		ss := &st.Shards[i]
		for _, s := range ss.Latency {
			sh.latency.RecordN(s.Seconds, int(s.Count))
		}
		for _, s := range ss.WakeLatency {
			sh.wakeLatency.RecordN(s.Seconds, int(s.Count))
		}
		sh.wm.RestoreCounters(ss.ScheduledWakes, ss.PacketWakes)
		sh.wake = metrics.WakeStats{
			Attempts:       ss.WakeAttempts,
			Retries:        ss.WakeRetries,
			LostWakes:      ss.LostWakes,
			RelayedWakes:   ss.RelayedWakes,
			LostSLASeconds: ss.LostSLASeconds,
			PathJoules:     ss.PathJoules,
		}
		sh.eventHours = int(ss.EventHours)
	}

	if st.HasNet != (r.net != nil) {
		return nil, fmt.Errorf("dcsim: checkpoint network model presence (%v) does not match the configuration (%v)",
			st.HasNet, r.net != nil)
	}
	if r.net != nil {
		if err := r.net.RestoreSerials(st.NetSerials); err != nil {
			return nil, err
		}
	}
	c.RestoreMigrationLedger(int(st.Migrations), st.MigrationSecs)

	r.restored = true
	r.startIndex = int(idx)
	return r, nil
}
