// Package checkpoint serializes complete dcsim run state at hour
// boundaries and provides the durable job journal drowsyd recovers
// from after a crash.
//
// The contract for run checkpoints is *bit-identity*: a run resumed
// from a checkpoint must produce report JSON byte-identical to the
// straight-through run at any shard-worker count. The state captured
// here is therefore exhaustive over everything behavior-visible at an
// hour boundary — cluster population order, placements, per-VM idleness
// models (the core codec's sparse form), the VMs' hr-timers,
// power-machine energy ledgers, suspend monitors, scheduled waking
// dates, per-shard latency multisets and wake counters, per-MAC WoL
// attempt serials and cluster migration ledgers — and deliberately
// excludes pure caches that rebuild bit-identically (trace memos, IP
// memos, the oasis idle index, engine event sequence numbers).
// No policy state is captured: the one hour of host utilization Neat's
// overload detector reads is rebuilt on resume by replaying the hourly
// recorder's last call.
//
// A run checkpoint is encoded as DrCP version 3, its models as core
// codec version 4, and a build decodes only those versions. A checkpoint
// lives only while its job is in flight, and drowsyd names each spill
// after a key that carries the build's version, so no build opens a
// spill another build wrote; one it cannot decode is deleted and its
// cell recomputed.
package checkpoint

import "drowsydc/internal/metrics"

// RunState is the complete mutable state of one dcsim run at an hour
// boundary, in plain serializable form. dcsim captures and restores it;
// this package only moves it to and from bytes.
type RunState struct {
	// Hour is the boundary the state was captured at: every hour below
	// it has been simulated, none at or above it. A resumed run starts
	// its loop here.
	Hour int64
	// StartHour and HorizonHours echo the run configuration, so a
	// restore into a differently-shaped run fails fast instead of
	// diverging silently.
	StartHour    int64
	HorizonHours int64
	// Policy is the policy's Name().
	Policy string
	// VMs holds one entry per live VM in the cluster registry's exact
	// iteration order at the boundary — the order is policy-visible, so
	// it must be reproduced, not reconstructed.
	VMs []VMState
	// Hosts holds one entry per host in cluster host order.
	Hosts []HostState
	// Shards holds one entry per hour-synchronized shard, in shard
	// order.
	Shards []ShardState
	// HasNet and NetSerials carry the lossy-WoL per-MAC attempt serials
	// when the run has a loss model.
	HasNet     bool
	NetSerials []uint64
	// Migrations and MigrationSecs are the cluster-wide ledger.
	Migrations    int64
	MigrationSecs float64
	// Departed holds the VMs whose departure the run consumed before
	// Hour, in schedule order, with their final migration counts: they
	// left the registry, so VMs does not carry them, yet the run's
	// result still reports every VM it ever held.
	Departed []DepartedVM
}

// DepartedVM is a departed VM's ID and final migration count.
type DepartedVM struct {
	ID         int32
	Migrations int32
}

// VMState is one VM's serialized state.
type VMState struct {
	ID int32
	// Migrations is the per-VM migration counter.
	Migrations int32
	// HasTimer and TimerAt carry the VM's hr-timer (the runtime's
	// per-VM entry). TimerAt may lie at or before the boundary: the
	// runtime keeps an expired date until a refresh replaces it, and the
	// restore reproduces the entry as is.
	HasTimer bool
	TimerAt  int64
	// Model is the VM's idleness model in core codec form.
	Model []byte
}

// HostState is one host's serialized state: the placement, the power
// machine, the suspend monitor and the runtime's per-host fields.
type HostState struct {
	ID int32
	// VMIDs is the host's resident VMs in host-local order (the order
	// utilization sums and the hr-timer refresh iterate in).
	VMIDs []int32

	// Power machine (power.MachineState).
	PState      uint8
	Since       float64
	Util        float64
	Joules      float64
	StateJoules [5]float64
	SuspSecs    float64
	OffSecs     float64
	TotalRef    float64
	Transits    int64
	Resumes     int64

	// Suspend monitor (suspend.MonitorState).
	GraceUntil   int64
	MonSuspended bool

	// Runtime fields: the host's resume instant and its pending
	// scheduled waking date, if any.
	ResumedAt int64
	HasWake   bool
	WakeAt    int64
}

// ShardState is one shard's serialized reduction state.
type ShardState struct {
	// Latency and WakeLatency are the shard collectors' run-length
	// encoded multisets, sorted by value (metrics.LatencyStats.Export).
	Latency     []metrics.LatencySample
	WakeLatency []metrics.LatencySample
	// ScheduledWakes and PacketWakes are the waking module's counters.
	ScheduledWakes uint64
	PacketWakes    uint64
	// Wake is the lossy-WoL ledger.
	WakeAttempts   uint64
	WakeRetries    uint64
	LostWakes      uint64
	RelayedWakes   uint64
	LostSLASeconds float64
	PathJoules     float64
	// EventHours counts sub-hourly event-walk hours.
	EventHours int64
}
