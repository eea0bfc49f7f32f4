// Package cluster models the placement domain of a Drowsy-DC datacenter:
// hosts with memory/slot/CPU capacities, VMs with demand traces and
// idleness models, and live migrations. Consolidation policies (Neat,
// Oasis, Drowsy-DC) operate on this model through the Policy interface;
// the dynamics (power states, suspension, waking) live in
// internal/dcsim.
package cluster

import (
	"fmt"
	"sort"

	"drowsydc/internal/core"
	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
	"drowsydc/internal/trace"
)

// Kind classifies a VM's expected behaviour, used for reporting and for
// the workload model (request-driven vs timer-driven waking).
type Kind int

const (
	// KindLLMI is a long-lived mostly-idle VM (e.g. seasonal web
	// service), the focus of the paper.
	KindLLMI Kind = iota
	// KindLLMU is a long-lived mostly-used VM (e.g. popular web
	// service).
	KindLLMU
	// KindSLMU is a short-lived mostly-used VM (e.g. MapReduce task).
	KindSLMU
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindLLMI:
		return "LLMI"
	case KindLLMU:
		return "LLMU"
	case KindSLMU:
		return "SLMU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// VM is a virtual machine.
type VM struct {
	ID    int
	Name  string
	Kind  Kind
	MemGB int
	VCPUs int
	Model *core.Model
	// TimerDriven marks VMs whose activity is initiated by local timers
	// (backup jobs): their next activity registers an hr-timer that the
	// suspending module converts into a scheduled waking date. Other VMs
	// are request-driven and wake their host via the packet path.
	TimerDriven bool

	host       *Host
	migrations int
	// slot is the VM's position in the current simulation runtime's
	// per-VM tables (see Slot).
	slot int
	// act is the VM's hourly activity (see Wire).
	act trace.Source
	// tl memoizes the within-hour burst timelines consumed by the
	// sub-hourly simulation mode, expanded with tlSeed: a memo Wire
	// shares across a run's cells (a replicated group's, or a
	// non-replicated member's per-call memo), or a private one built on
	// the first Bursts read, so hourly runs never hold one.
	tl     *trace.Memo[timeline.Hour]
	tlSeed uint64
}

// NewVM constructs a VM with a fresh idleness model. Its activity is
// gen read through a private memo, and its timeline seed is a hash of
// the VM ID (deterministic, so repeated runs of one cluster
// construction replay identical bursts).
func NewVM(id int, name string, kind Kind, memGB, vcpus int, gen trace.Generator) *VM {
	if memGB <= 0 || vcpus <= 0 {
		panic(fmt.Sprintf("cluster: VM %q with non-positive capacity", name))
	}
	return &VM{ID: id, Name: name, Kind: kind, MemGB: memGB, VCPUs: vcpus,
		Model: core.New(), act: trace.NewSource(gen),
		tlSeed: timeline.MixSeed(0xd40b5eed, uint64(id))}
}

// Wire replaces the VM's activity source and timeline seed, and
// optionally points its bursts at a timeline memo shared across a
// run's cells (internal/scenario: one per replicated workload group,
// one per non-replicated member). A nil tl gives the VM a private memo
// of src expanded with seed. A shared tl must be
// trace.NewTimelines(seed, src): a memo of another seed or another
// source would make the VM report one timeline while replaying
// another's bursts, so either mismatch panics. src must derive from
// the VM's own workload; sources are pure, so any memo of it reads
// bit-identically.
func (v *VM) Wire(src trace.Source, tl *trace.Memo[timeline.Hour], seed uint64) {
	if tl != nil && tl.Seed() != seed {
		panic(fmt.Sprintf("cluster: VM %s timeline seed %#x mismatches shared store seed %#x",
			v.Name, seed, tl.Seed()))
	}
	if tl != nil && !tl.Expands(src) {
		panic(fmt.Sprintf("cluster: VM %s activity source mismatches shared store source", v.Name))
	}
	v.act, v.tl, v.tlSeed = src, tl, seed
}

// TimelineSeed returns the seed of the VM's within-hour burst
// expansion.
func (v *VM) TimelineSeed() uint64 { return v.tlSeed }

// Bursts returns the VM's within-hour burst timeline for hour h: the
// deterministic expansion of its activity level into request bursts
// and idle gaps (internal/timeline). The slice points into the memo's
// published chunk, which other cells may be reading: callers must not
// write through it (an append copies).
func (v *VM) Bursts(h simtime.Hour) []timeline.Burst {
	if v.tl == nil {
		v.tl = trace.NewTimelines(v.tlSeed, v.act)
	}
	return v.tl.Ref(h).Bursts()
}

// Activity returns the VM's activity level for the given hour.
func (v *VM) Activity(h simtime.Hour) float64 { return v.act.Activity(h) }

// Host returns the VM's current host, or nil when unplaced.
func (v *VM) Host() *Host { return v.host }

// Slot returns the dense index a simulation runtime stamped on the VM
// (SetSlot), 0 until one does. It addresses the runtime's per-VM
// tables and never orders or identifies anything in an output: ties
// break on ID.
func (v *VM) Slot() int { return v.slot }

// SetSlot stamps the VM's dense runtime index. A runtime numbers the
// VMs it drives 0..n−1 once, at construction; a VM driven by a later
// runtime is restamped by it.
func (v *VM) SetSlot(slot int) { v.slot = slot }

// Migrations returns the number of migrations the VM experienced.
func (v *VM) Migrations() int { return v.migrations }

// IP returns the model's idleness probability (in [−1, 1]) for hour h.
func (v *VM) IP(h simtime.Hour) float64 { return v.Model.IPAt(h) }

// Host is a physical server.
type Host struct {
	ID    int
	Name  string
	MemGB int
	VCPUs int
	// MaxVMs bounds the number of VMs (the paper's testbed allows
	// exactly 2 per machine); 0 means unbounded.
	MaxVMs int
	// Subnet is the host's broadcast domain: WoL magic packets only
	// propagate within a subnet, and the netsim delivery model keys
	// loss/relay behavior on it. 0 (the default) is the flat everyone-
	// on-one-switch topology every scenario had before subnets existed.
	Subnet int

	vms []*VM
	// pos is the host's index in its cluster's Hosts() (see Pos).
	pos int
}

// NewHost constructs a host.
func NewHost(id int, name string, memGB, vcpus, maxVMs int) *Host {
	if memGB <= 0 || vcpus <= 0 || maxVMs < 0 {
		panic(fmt.Sprintf("cluster: host %q with invalid capacity", name))
	}
	return &Host{ID: id, Name: name, MemGB: memGB, VCPUs: vcpus, MaxVMs: maxVMs}
}

// VMs returns the hosted VMs (shared slice; callers must not mutate).
func (h *Host) VMs() []*VM { return h.vms }

// Pos returns the host's index in its cluster's Hosts(), stamped by
// AddHost. Hosts are never removed, so the position is fixed for the
// cluster's life, and policies and the runtime index per-host tables
// by it. Like a VM slot it never reaches an output: ties break on
// position only where they already broke on Hosts() order.
func (h *Host) Pos() int { return h.pos }

// NumVMs returns the number of hosted VMs.
func (h *Host) NumVMs() int { return len(h.vms) }

// MemUsed returns the memory committed to hosted VMs. Memory is
// space-shared and never preempted (§I of the paper: "memory is often
// the limiting resource"), so placement checks it strictly.
func (h *Host) MemUsed() int {
	used := 0
	for _, v := range h.vms {
		used += v.MemGB
	}
	return used
}

// CanHost reports whether the host has room for the VM.
func (h *Host) CanHost(v *VM) bool {
	if h.MaxVMs > 0 && len(h.vms) >= h.MaxVMs {
		return false
	}
	return h.MemUsed()+v.MemGB <= h.MemGB
}

// Utilization returns the host's CPU utilization for hour hr: the
// vCPU-weighted activity of its VMs over the host's capacity (CPU is
// time-shared, so this may legitimately exceed 1 before clamping —
// that's an overload the policies react to).
func (h *Host) Utilization(hr simtime.Hour) float64 {
	if h.VCPUs == 0 {
		return 0
	}
	demand := 0.0
	for _, v := range h.vms {
		demand += v.Activity(hr) * float64(v.VCPUs)
	}
	return demand / float64(h.VCPUs)
}

// IP returns the host's idleness probability in [−1, 1]: the average of
// its VMs' IPs (§III: "a server's IP is the average of its VMs' IPs").
// An empty host has IP 0 (undetermined).
func (h *Host) IP(hr simtime.Hour) float64 {
	if len(h.vms) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.vms {
		sum += v.IP(hr)
	}
	return sum / float64(len(h.vms))
}

// Probability returns the normalized host idleness probability.
func (h *Host) Probability(hr simtime.Hour) float64 { return (h.IP(hr) + 1) / 2 }

// IPRange returns the spread between the most idle and the most active
// VM's IP on the host (the quantity bounded by the 7σ opportunistic
// consolidation threshold, §III-D). An empty or single-VM host has
// range 0.
func (h *Host) IPRange(hr simtime.Hour) float64 {
	if len(h.vms) < 2 {
		return 0
	}
	lo, hi := h.vms[0].IP(hr), h.vms[0].IP(hr)
	for _, v := range h.vms[1:] {
		ip := v.IP(hr)
		if ip < lo {
			lo = ip
		}
		if ip > hi {
			hi = ip
		}
	}
	return hi - lo
}

// Cluster is a set of hosts and VMs.
type Cluster struct {
	hosts []*Host
	vms   []*VM

	migrations    int
	migrationSecs float64
	// MigrationGBps is the live-migration bandwidth used to account
	// migration durations (memory is copied over the wire).
	MigrationGBps float64
}

// New creates an empty cluster with 1.25 GB/s migration bandwidth
// (the paper's 10 Gb/s network).
func New() *Cluster { return &Cluster{MigrationGBps: 1.25} }

// AddHost appends a host and stamps its position.
func (c *Cluster) AddHost(h *Host) {
	h.pos = len(c.hosts)
	c.hosts = append(c.hosts, h)
}

// AddVM registers a VM (initially unplaced).
func (c *Cluster) AddVM(v *VM) { c.vms = append(c.vms, v) }

// Hosts returns all hosts.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// VMs returns all VMs.
func (c *Cluster) VMs() []*VM { return c.vms }

// Host returns the host with the given ID, or nil.
func (c *Cluster) Host(id int) *Host {
	for _, h := range c.hosts {
		if h.ID == id {
			return h
		}
	}
	return nil
}

// Place puts an unplaced VM on a host.
func (c *Cluster) Place(v *VM, h *Host) error {
	if v.host != nil {
		return fmt.Errorf("cluster: VM %s already placed on %s", v.Name, v.host.Name)
	}
	if !h.CanHost(v) {
		return fmt.Errorf("cluster: host %s cannot fit VM %s (%dGB, %d/%d VMs)",
			h.Name, v.Name, v.MemGB, len(h.vms), h.MaxVMs)
	}
	h.vms = append(h.vms, v)
	v.host = h
	return nil
}

// Migrate live-migrates a placed VM to dst, accounting the migration
// cost. Migrating to the current host is a no-op.
func (c *Cluster) Migrate(v *VM, dst *Host) error {
	if v.host == nil {
		return fmt.Errorf("cluster: migrate of unplaced VM %s", v.Name)
	}
	if v.host == dst {
		return nil
	}
	if !dst.CanHost(v) {
		return fmt.Errorf("cluster: host %s cannot fit VM %s", dst.Name, v.Name)
	}
	c.remove(v)
	dst.vms = append(dst.vms, v)
	v.host = dst
	v.migrations++
	c.migrations++
	c.migrationSecs += float64(v.MemGB) / c.MigrationGBps
	return nil
}

// Remove deletes a VM from the cluster (VM termination): it is detached
// from its host and unregistered, so policies no longer see it. The
// caller keeps its own reference for reporting. Removing an unknown VM
// is a no-op.
func (c *Cluster) Remove(v *VM) {
	if v.host != nil {
		c.remove(v)
	}
	for i, x := range c.vms {
		if x == v {
			c.vms = append(c.vms[:i], c.vms[i+1:]...)
			return
		}
	}
}

// remove detaches a VM from its host.
func (c *Cluster) remove(v *VM) {
	h := v.host
	for i, x := range h.vms {
		if x == v {
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			break
		}
	}
	v.host = nil
}

// Assignment pairs a VM with a target host for ApplyAssignments.
type Assignment struct {
	VM   *VM
	Host *Host
}

// ApplyAssignments re-places a set of VMs atomically: conceptually all
// listed VMs are detached first and then placed on their targets, so
// cyclic exchanges between full hosts (VM A and VM B swapping servers)
// are expressible — the situation a live full-relocation round creates
// on a fully packed cluster. Feasibility is validated before any
// mutation; on error the cluster is unchanged. Each VM whose host
// actually changes counts as one migration.
func (c *Cluster) ApplyAssignments(plan []Assignment) error {
	// Validate: compute per-host load with the listed VMs removed, then
	// re-added at their targets.
	memAfter := make(map[*Host]int, len(c.hosts))
	numAfter := make(map[*Host]int, len(c.hosts))
	for _, h := range c.hosts {
		memAfter[h] = h.MemUsed()
		numAfter[h] = len(h.vms)
	}
	seen := make(map[*VM]bool, len(plan))
	for _, a := range plan {
		if a.VM == nil || a.Host == nil {
			return fmt.Errorf("cluster: nil entry in assignment plan")
		}
		if seen[a.VM] {
			return fmt.Errorf("cluster: VM %s assigned twice", a.VM.Name)
		}
		seen[a.VM] = true
		if h := a.VM.host; h != nil {
			memAfter[h] -= a.VM.MemGB
			numAfter[h]--
		}
	}
	for _, a := range plan {
		memAfter[a.Host] += a.VM.MemGB
		numAfter[a.Host]++
	}
	for _, h := range c.hosts {
		if memAfter[h] > h.MemGB {
			return fmt.Errorf("cluster: plan exceeds memory of host %s", h.Name)
		}
		if h.MaxVMs > 0 && numAfter[h] > h.MaxVMs {
			return fmt.Errorf("cluster: plan exceeds VM slots of host %s", h.Name)
		}
	}
	// Execute: detach all, then place.
	prev := make(map[*VM]*Host, len(plan))
	for _, a := range plan {
		prev[a.VM] = a.VM.host
		if a.VM.host != nil {
			c.remove(a.VM)
		}
	}
	for _, a := range plan {
		a.Host.vms = append(a.Host.vms, a.VM)
		a.VM.host = a.Host
		if prev[a.VM] != nil && prev[a.VM] != a.Host {
			a.VM.migrations++
			c.migrations++
			c.migrationSecs += float64(a.VM.MemGB) / c.MigrationGBps
		}
	}
	return nil
}

// Migrations returns the total number of migrations performed.
func (c *Cluster) Migrations() int { return c.migrations }

// MigrationSeconds returns the cumulative migration transfer time.
func (c *Cluster) MigrationSeconds() float64 { return c.migrationSecs }

// Assignments returns hosts indexed by VM order: element i is the host
// ID of VMs()[i], or -1.
func (c *Cluster) Assignments() []int {
	out := make([]int, len(c.vms))
	for i, v := range c.vms {
		if v.host == nil {
			out[i] = -1
		} else {
			out[i] = v.host.ID
		}
	}
	return out
}

// CheckInvariants verifies placement consistency (every VM's host lists
// it exactly once, capacities respected); used by tests and property
// checks.
func (c *Cluster) CheckInvariants() error {
	for _, h := range c.hosts {
		if h.MaxVMs > 0 && len(h.vms) > h.MaxVMs {
			return fmt.Errorf("host %s exceeds VM slots", h.Name)
		}
		if h.MemUsed() > h.MemGB {
			return fmt.Errorf("host %s exceeds memory", h.Name)
		}
		for _, v := range h.vms {
			if v.host != h {
				return fmt.Errorf("VM %s on host %s thinks it is on %v", v.Name, h.Name, v.host)
			}
		}
	}
	for _, v := range c.vms {
		if v.host == nil {
			continue
		}
		count := 0
		for _, x := range v.host.vms {
			if x == v {
				count++
			}
		}
		if count != 1 {
			return fmt.Errorf("VM %s listed %d times on host %s", v.Name, count, v.host.Name)
		}
	}
	return nil
}

// SortVMsByMemDesc returns the VMs sorted by decreasing memory demand
// (the order both Neat's PABFD and Drowsy's placement treat VMs in:
// "we first treat VMs with the biggest resource requirements").
func SortVMsByMemDesc(vms []*VM) []*VM {
	out := append([]*VM(nil), vms...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MemGB != out[j].MemGB {
			return out[i].MemGB > out[j].MemGB
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// HourRecorder is the per-hour observation hook of the Policy
// interface: policies that maintain hourly state — the last hour's host
// utilization (Neat, Drowsy-DC) or the incremental idle index (Oasis) —
// implement it, and the simulation runtime calls RecordHour once per
// simulated hour, after the hour's activity played out and the
// idleness models were fed. A runner resumed at the boundary of hour hr
// replays the last call, RecordHour(c, hr−1, util), before its first
// round, so a recorder's state needs no checkpoint. Policies driven
// outside a runtime (direct Rebalance calls) must not rely on it; they
// lazily catch up instead.
//
// util holds every host's utilization for the hour just played,
// indexed by Host.Pos: util[h.Pos()] is h.Utilization(hr), bit for
// bit, unclamped. The runtime's host phase already sums it, so a
// recorder reads it instead of re-reading every VM's activity. The
// slice is reused across hours, so a recorder that keeps it copies it.
type HourRecorder interface {
	RecordHour(c *Cluster, hr simtime.Hour, util []float64)
}

// IdlenessBlind marks a policy that never reads a VM's idleness model
// (VM.Model, and through it VM.IP, Host.IP and their relatives) — the
// paper's Neat baseline and the Oasis comparator, which decide from
// utilization and observed activity alone. The simulation runtime feeds
// the models only when something reads them: a run whose policy is
// blind and whose suspending module has no grace time skips the hourly
// observation phase entirely, so its models stay fresh. A blind policy
// that starts reading models therefore reads fresh ones; the runtime's
// tests run blind policies on VMs with nil models to catch that.
type IdlenessBlind interface {
	IdlenessBlind()
}

// Policy is a consolidation algorithm: it owns initial placement of new
// VMs and the hourly rebalancing pass.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// PlaceNew selects a host for a newly created VM (the Nova filter
	// scheduler path, §III-D-a). It returns an error when no host fits.
	PlaceNew(c *Cluster, v *VM, hr simtime.Hour) (*Host, error)
	// Rebalance runs one consolidation round before hour hr plays out
	// (the Neat path, §III-D-b). Implementations migrate VMs in place.
	Rebalance(c *Cluster, hr simtime.Hour)
}

// ---------------------------------------------------------------------------
// Checkpoint restore

// RestoreMigrations overwrites the VM's migration counter with a
// previously captured value, for run checkpoints.
func (v *VM) RestoreMigrations(n int) { v.migrations = n }

// RestoreMigrationLedger overwrites the cluster-wide migration counters
// with previously captured values, for run checkpoints.
func (c *Cluster) RestoreMigrationLedger(migrations int, seconds float64) {
	c.migrations = migrations
	c.migrationSecs = seconds
}

// RestorePopulation replaces the cluster's VM registry with vms, in
// order, for run checkpoints: the registry's iteration order is
// placement- and policy-visible, so a restored run must reproduce the
// exact order the live run had at the checkpoint boundary (arrivals
// appended hour by hour, departures spliced out). Every VM is detached;
// the caller re-places them per the serialized host assignment.
func (c *Cluster) RestorePopulation(vms []*VM) {
	for _, v := range vms {
		if v.host != nil {
			c.remove(v)
		}
	}
	c.vms = append(c.vms[:0:0], vms...)
}
