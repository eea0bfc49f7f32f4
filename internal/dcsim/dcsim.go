// Package dcsim is the datacenter simulation runtime: it wires the
// placement domain (internal/cluster) to the power model, the
// suspending module and the waking module, and plays a workload hour
// by hour under a consolidation policy. It is the equivalent of the
// paper's two evaluation vehicles at once — the OpenStack/KVM testbed
// of §VI-A and the CloudSim simulation of §VI-B.
//
// # Time model
//
// VM activity is hourly (the resolution of the idleness model). The
// activity level of an hour is the VM's CPU utilization across that
// hour: a VM with activity above the noise floor keeps its host awake
// for the whole hour (its processes stay runnable on and off at a
// granularity far below what suspension could exploit), while an hour
// below the floor is an idle hour. A host is therefore suspendable
// exactly during its fully idle hours, subject to the suspending
// module's checks (grace time, decision overhead). Waking happens
// through the waking module: ahead of time for scheduled dates (the
// earliest hr-timer of the host's timer-driven VMs, kept per VM and
// refreshed at each hour start), or on the first inbound request of an
// active hour (request-driven VMs), which then pays the resume latency.
//
// Config.Resolution refines this: at ResolutionEvent, active hours are
// deterministically expanded into within-hour request bursts and idle
// gaps (internal/timeline), and hours containing activity transitions
// advance the suspending module at event granularity — a host can
// suspend in a gap of minutes and be packet-woken by the next burst,
// so grace time, decision overhead and the S3 transition latencies
// interact at the second scale the paper measures them at. All other
// hours, and every hour at the ResolutionHourly default, take the O(1)
// hourly path; the default is bit-identical to the pre-timeline
// simulator.
package dcsim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/cluster"
	"drowsydc/internal/core"
	"drowsydc/internal/metrics"
	"drowsydc/internal/netsim"
	"drowsydc/internal/par"
	"drowsydc/internal/power"
	"drowsydc/internal/sim"
	"drowsydc/internal/simtime"
	"drowsydc/internal/suspend"
	"drowsydc/internal/timeline"
	"drowsydc/internal/waking"
)

// Resolution selects the temporal granularity of host dynamics.
type Resolution int

const (
	// ResolutionHourly is the paper's native model (the default): a VM
	// with activity above the noise floor pins its host awake for the
	// whole hour, and suspension is evaluated once per fully idle hour.
	ResolutionHourly Resolution = iota
	// ResolutionEvent expands each active hour into a deterministic
	// within-hour burst timeline (internal/timeline) and advances the
	// suspending module at event granularity in hours that contain
	// activity transitions, so grace expiry, resume latency and
	// decision overhead compete at their true second scale. Hours
	// without transitions — fully idle, or bursts covering the whole
	// hour — still take the O(1) hourly path, bounding the overhead.
	ResolutionEvent
)

// String names the resolution.
func (r Resolution) String() string {
	switch r {
	case ResolutionHourly:
		return "hourly"
	case ResolutionEvent:
		return "event"
	default:
		return fmt.Sprintf("Resolution(%d)", int(r))
	}
}

// ParseResolution converts a CLI-facing name into a Resolution.
func ParseResolution(s string) (Resolution, error) {
	switch s {
	case "hourly":
		return ResolutionHourly, nil
	case "event":
		return ResolutionEvent, nil
	default:
		return 0, fmt.Errorf("dcsim: unknown resolution %q (hourly, event)", s)
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Profile is the host power/latency profile.
	Profile power.Profile
	// HostProfiles overrides Profile for individual hosts (keyed by host
	// ID), making heterogeneous fleets expressible: a scenario can mix
	// big-memory efficient machines with legacy power-hungry ones. Hosts
	// absent from the map use Profile; an empty or nil map reproduces the
	// homogeneous behaviour exactly.
	HostProfiles map[int]power.Profile
	// EnableSuspend allows non-empty hosts to enter S3 when idle. The
	// paper's vanilla-Neat baseline ("current real world case") runs
	// with it disabled; empty hosts still power off in all modes.
	EnableSuspend bool
	// UseGrace enables the anti-oscillation grace time (a Drowsy-DC
	// feature; the Neat+S3 baseline runs without it).
	UseGrace bool
	// MaxGraceSeconds overrides the grace-time upper bound in seconds
	// (0 = the paper's 2-minute bound). Only meaningful with UseGrace;
	// parameter sweeps vary it to regenerate the paper's grace-time
	// sensitivity curve at fleet scale.
	MaxGraceSeconds float64
	// NaiveResume charges the unoptimized resume latency on packet
	// wakes (ablation of the paper's quick-resume work).
	NaiveResume bool
	// Resolution selects hourly (default) or event-driven sub-hourly
	// host dynamics. The hourly default is bit-identical to the
	// pre-timeline simulator.
	Resolution Resolution
	// RebalanceEvery is the consolidation period in hours (default 1).
	RebalanceEvery int
	// RequestsPerHour scales request sampling for SLA accounting: an
	// active hour of a request-driven VM carries activity×RequestsPerHour
	// requests (minimum one). Default 200.
	RequestsPerHour int
	// ShardWorkers bounds the worker goroutines of the intra-run sharded
	// executor: hosts are partitioned into fixed spans (ShardHostSpan)
	// that play each hour's host and observation phases in parallel,
	// synchronizing at hour boundaries with a deterministic shard-order
	// reduction — results are bit-identical for every worker count.
	// 1 runs the phases inline (serial); 0 selects a GOMAXPROCS bound.
	ShardWorkers int
	// ShardHostSpan is the number of consecutive hosts per shard
	// (0 = 64). The shard partition depends only on the fleet size,
	// never on ShardWorkers, so the worker count cannot change which
	// state is grouped — only how many shards advance at once.
	ShardHostSpan int
	// Network, when non-nil, replaces the perfect Wake-on-LAN callback
	// with netsim's lossy delivery model: magic packets are dropped with
	// the configured probability (deterministically, seeded), retried on
	// silence, and carried reliably by per-subnet relays. Hosts' broadcast
	// domains come from cluster.Host.Subnet. nil keeps delivery perfect
	// and the run bit-identical to the pre-network simulator.
	Network *netsim.Config
	// Probe, when non-nil, receives one HourSample per simulated hour —
	// the flight-recorder hook (see probe.go). Observe-only: attaching a
	// probe never changes a run's Result (bit-identical with or without),
	// and a nil probe costs a single branch per hour.
	Probe Probe
	// ProbeTimings adds wall-clock executor phase timings to each
	// HourSample. Off by default because timings are the one
	// non-deterministic sample field; everything else in a sample is
	// identical across runs of the same configuration.
	ProbeTimings bool
	// Checkpoint, when non-nil, receives the serialized complete run
	// state (internal/checkpoint) at every CheckpointEveryHours'th hour
	// boundary — after the boundary's engine events fired, before the
	// hour is played. A run resumed from the blob (ResumeRunner) is
	// bit-identical to the straight-through run at any ShardWorkers
	// count. A nil hook costs one branch per hour and changes nothing:
	// capture reads state, it never mutates it.
	Checkpoint func(hr simtime.Hour, data []byte)
	// CheckpointEveryHours is the capture cadence (0 = 744 hours, the
	// longest calendar month — one spill per simulated month).
	CheckpointEveryHours int
	// Context, when non-nil, cancels the run cooperatively: Run checks
	// it at each hour boundary (non-blocking) and returns nil once it is
	// done. Per-hour work is never interrupted mid-flight, so a
	// cancelled runner leaves no half-played hour behind.
	Context context.Context
	// StartHour is the calendar hour at which the run begins.
	StartHour simtime.Hour
	// Hours is the length of the run.
	Hours int
	// Arrivals are VMs created mid-run: each is registered with the
	// cluster at its hour and placed through the policy's PlaceNew path
	// (the Nova filter-scheduler integration, §III-D-a).
	Arrivals []Arrival
	// Departures are VM terminations: the VM is removed from the
	// cluster at its hour (the SLMU lifecycle — a MapReduce task ends
	// and its capacity returns to the pool).
	Departures []Departure
}

// Request accounting and timer constants.
const (
	// serviceSeconds is the base service time of one request (the
	// CloudSuite web-search SLA is 200 ms).
	serviceSeconds = 0.05
	// slaSeconds is the SLA target.
	slaSeconds = 0.2
	// timerScanHorizonHours bounds the lookahead when converting a
	// timer-driven VM's next active hour into an hr-timer.
	timerScanHorizonHours = simtime.HoursPerYear
	// readAheadHours is how far past the hour being played an IP read
	// can reach: a drowsy-full round matches each VM's IP profile over
	// its hour and the next drowsy.ProfileHours − 1.
	readAheadHours = 23
)

// Arrival schedules the creation of a VM during the run. The VM must be
// fully constructed but not yet added to the cluster.
type Arrival struct {
	At simtime.Hour
	VM *cluster.VM
}

// Departure schedules the termination of a VM during the run. The VM
// must be part of the cluster (initially or via an Arrival before At).
type Departure struct {
	At simtime.Hour
	VM *cluster.VM
}

func (c Config) withDefaults() Config {
	if c.Profile == (power.Profile{}) {
		c.Profile = power.DefaultProfile()
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = 1
	}
	if c.RequestsPerHour == 0 {
		c.RequestsPerHour = 200
	}
	if c.ShardHostSpan == 0 {
		c.ShardHostSpan = 64
	}
	if c.CheckpointEveryHours == 0 {
		c.CheckpointEveryHours = 744
	}
	return c
}

// hostRT is the per-host runtime state, one per host in Hosts() order.
type hostRT struct {
	host    *cluster.Host
	profile power.Profile
	machine *power.Machine
	monitor *suspend.Monitor
	// sh is the shard owning this host: every engine/waking-module/
	// latency interaction of the host routes through it, so the host
	// phases of distinct shards touch disjoint state.
	sh *shard
	// packetWoken marks that the current hour's resume was triggered by
	// an inbound request (so the first request pays the wake latency).
	packetWoken bool
	// lastWakeDelay is the extra silence the host's most recent lossy
	// wake transaction cost (retransmission backoff or out-of-band
	// recovery); the request recorders add it to the wake penalty. Zero
	// under perfect delivery.
	lastWakeDelay float64
	// resumedAt is when the host last became fully active.
	resumedAt simtime.Time
	// wakeAt is the earliest hr-timer of the host's timer-driven
	// residents, valid when hasWake. The hour's refresh in playHour
	// sets it before any suspension check of the hour reads it.
	wakeAt  simtime.Time
	hasWake bool
}

// Idle implements suspend.Host: the runtime checks a host only in idle
// hours and idle gaps, where none of its VMs is running.
func (rt *hostRT) Idle() bool { return true }

// NextWake implements suspend.Host: the waking date the hour's refresh
// computed.
func (rt *hostRT) NextWake() (simtime.Time, bool) { return rt.wakeAt, rt.hasWake }

// vmRT is the runtime's per-VM state, indexed by the slot NewRunner
// stamps on each VM. A VM lives on one host at a time, so its entry is
// written only by the shard owning that host or by the serial phases.
type vmRT struct {
	// timerAt is the VM's hr-timer expiry, valid when hasTimer. An
	// expired date stays until the next refresh replaces it:
	// checkpoints carry it as is. A migration drops the timer.
	timerAt  simtime.Time
	hasTimer bool
}

// shard is one partition of the fleet: a fixed span of consecutive
// hosts (and whichever VMs currently reside on them) advancing one hour
// independently of the other shards. Each shard owns a full vertical
// slice of the event-driven machinery — engine, waking module, latency
// collectors, scratch buffers — so the parallel host and observation
// phases of an hour share no mutable state across shards (the modules'
// switches share one VM→MAC table, whose entries are each written by
// the shard hosting the VM only); the serial reduction at the hour
// boundary walks shards in index order for a deterministic merge. The
// partition is bit-identity-safe because every interaction the runtime
// generates is shard-local: packet and
// scheduled wakes are self-wakes of the suspended host (the switch's
// VM→MAC mappings always reflect current residency — management wakes
// on migration clear stale entries), same-instant engine events of
// distinct hosts commute, and all cross-shard effects (placement,
// model reads by policies) happen in the serial phases.
type shard struct {
	idx    int
	engine *sim.Engine
	wm     *waking.Module
	hosts  []*hostRT // in global Cluster.Hosts() order

	latency     *metrics.LatencyStats
	wakeLatency *metrics.LatencyStats
	// wake accumulates the shard's lossy-delivery outcomes; zero when
	// the run has no network model. Merged in shard order by collect.
	wake metrics.WakeStats

	// Reused scratch (each shard advances on one goroutine at a time).
	actBuf   []float64
	tlBuf    [][]timeline.Burst
	awakeBuf []timeline.Burst
	wakeBuf  []int
	delayBuf []float64
	addrBuf  []netsim.VMID
	// obsModels and obsActs are the hour's observation batch: the host
	// phase appends each resident VM's model and activity level in host
	// order, and the observation phase feeds them to the models.
	obsModels []*core.Model
	obsActs   []float64

	// eventNow, when nonzero, is the within-hour instant the event-mode
	// walk is processing; onWoL clamps wake times to it because the
	// engine clock only advances at hour boundaries.
	eventNow   simtime.Time
	eventHours int
}

// Result aggregates a run's measurements.
type Result struct {
	Policy string
	Hours  int

	EnergyKWh      float64
	HostEnergyKWh  []float64
	SuspendedFrac  []float64
	GlobalSuspFrac float64
	SuspendCounts  []int

	Migrations      int
	PerVMMigrations []int

	Latency     *metrics.LatencyStats
	WakeLatency *metrics.LatencyStats

	ScheduledWakes uint64
	PacketWakes    uint64

	// Wake aggregates the lossy WoL delivery outcomes (zero when
	// Config.Network is nil). Its PathJoules are already folded into
	// EnergyKWh.
	Wake metrics.WakeStats

	// EventHours counts (host, hour) pairs simulated at event
	// granularity — zero at hourly resolution, and bounded by the
	// transition hours at event resolution (the overhead diagnostic).
	EventHours int
}

// Runner executes one simulation.
type Runner struct {
	cfg     Config
	cluster *cluster.Cluster
	policy  cluster.Policy
	shards  []*shard
	// hosts is indexed by host position (Host.Pos); byMAC by host ID,
	// the MAC the waking modules and the loss model address a host by.
	hosts []*hostRT
	byMAC []*hostRT
	// util is each host's utilization for the hour just played, by
	// host position: the host phase stores it (each shard at its own
	// hosts only) and the serial reduction hands it to the policy's
	// hour recorder.
	util []float64
	// net is the lossy WoL delivery model (nil = perfect delivery);
	// netCfg is its resolved configuration. The per-MAC attempt serials
	// inside are written only by the owning host's shard.
	net    *netsim.LossModel
	netCfg netsim.Config
	// observe is whether anything in the run reads the idleness models:
	// the policy (unless it is cluster.IdlenessBlind) or the grace time.
	// A run that reads none skips the observation phase and the batch
	// that feeds it.
	observe bool
	// allVMs fixes the reporting order: the cluster's initial VMs
	// followed by the scheduled arrivals. A VM's slot is its index here
	// (slots are never reused after departure), and vms is indexed by
	// slot.
	allVMs  []*cluster.VM
	vms     []vmRT
	pending []Arrival
	departs []Departure

	// Reused per-round scratch of the serial phases.
	assignBuf []int
	snapBuf   []*cluster.Host

	// Flight-recorder state (see probe.go): the cumulative ledger the
	// per-hour deltas subtract against, and the last completed hour's
	// wall-clock phase timings (pre, host, observe, reduce).
	probePrev  probeTotals
	phaseNanos [4]int64

	// Resume state (see checkpoint.go): restored marks a runner built by
	// ResumeRunner — initial placement is skipped (placements came from
	// the checkpoint) and the hour loop starts at startIndex.
	restored   bool
	startIndex int
}

// NewRunner builds a runner for a cluster whose VMs are already
// registered (placed or not — unplaced VMs are placed by the policy at
// the first hour).
func NewRunner(cfg Config, c *cluster.Cluster, policy cluster.Policy) *Runner {
	cfg = cfg.withDefaults()
	if err := cfg.Profile.Validate(); err != nil {
		panic(err)
	}
	for id, p := range cfg.HostProfiles {
		if err := p.Validate(); err != nil {
			panic(fmt.Sprintf("dcsim: host %d profile: %v", id, err))
		}
	}
	if cfg.Hours <= 0 {
		panic("dcsim: non-positive run length")
	}
	if cfg.MaxGraceSeconds < 0 {
		panic("dcsim: negative max grace")
	}
	if cfg.Resolution != ResolutionHourly && cfg.Resolution != ResolutionEvent {
		panic(fmt.Sprintf("dcsim: unknown resolution %d", int(cfg.Resolution)))
	}
	if cfg.ShardWorkers < 0 {
		panic("dcsim: negative shard workers")
	}
	if cfg.ShardHostSpan < 0 {
		panic("dcsim: negative shard host span")
	}
	_, blind := policy.(cluster.IdlenessBlind)
	r := &Runner{
		cfg:     cfg,
		cluster: c,
		policy:  policy,
		observe: cfg.UseGrace || !blind,
	}
	r.allVMs = append(r.allVMs, c.VMs()...)
	for _, a := range cfg.Arrivals {
		if a.VM == nil {
			panic("dcsim: nil VM in arrival")
		}
		if a.At < cfg.StartHour {
			panic("dcsim: arrival before run start")
		}
		r.allVMs = append(r.allVMs, a.VM)
		r.pending = append(r.pending, a)
	}
	for _, d := range cfg.Departures {
		if d.VM == nil {
			panic("dcsim: nil VM in departure")
		}
		r.departs = append(r.departs, d)
	}
	ids := make([]int, len(r.allVMs))
	r.vms = make([]vmRT, len(r.allVMs))
	for i, v := range r.allVMs {
		v.SetSlot(i)
		ids[i] = v.ID
	}
	sort.Ints(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			panic(fmt.Sprintf("dcsim: duplicate VM ID %d", ids[i]))
		}
	}
	maxID := 0
	for _, h := range c.Hosts() {
		if h.ID < 0 {
			panic(fmt.Sprintf("dcsim: host %q has negative ID %d", h.Name, h.ID))
		}
		maxID = max(maxID, h.ID)
	}
	r.byMAC = make([]*hostRT, maxID+1)
	if cfg.Network != nil {
		nc := cfg.Network.WithDefaults()
		if err := nc.Validate(); err != nil {
			panic(fmt.Sprintf("dcsim: network config: %v", err))
		}
		subnetOf := make([]int, maxID+1)
		for _, h := range c.Hosts() {
			if h.Subnet < 0 {
				panic(fmt.Sprintf("dcsim: host %d in negative subnet %d", h.ID, h.Subnet))
			}
			subnetOf[h.ID] = h.Subnet
		}
		r.netCfg = nc
		r.net = netsim.NewLossModel(nc, subnetOf, maxID+1)
	}
	start := cfg.StartHour.Start()
	// The waking module's scheduled-wake lead must cover the slowest
	// host of the fleet, so ahead-of-time WoLs land early enough
	// everywhere.
	maxResume := cfg.Profile.ResumeLatency
	for _, p := range cfg.HostProfiles {
		if p.ResumeLatency > maxResume {
			maxResume = p.ResumeLatency
		}
	}
	lead := simtime.Duration(math.Ceil(maxResume))
	if lead < 1 {
		lead = 1
	}
	// Partition the hosts into fixed spans. The span — and with it every
	// shard's host set, engine, and waking module — depends only on the
	// fleet size and ShardHostSpan, never on ShardWorkers.
	numShards := (len(c.Hosts()) + cfg.ShardHostSpan - 1) / cfg.ShardHostSpan
	if numShards == 0 {
		numShards = 1
	}
	// The shards' switches share one VM→MAC table, sized so no write
	// grows it: each VM's entry is written by the shard hosting it only.
	vmTable := netsim.NewTable(len(r.allVMs))
	for s := 0; s < numShards; s++ {
		sh := &shard{
			idx:         s,
			engine:      sim.New(),
			latency:     metrics.NewLatencyStats(slaSeconds),
			wakeLatency: metrics.NewLatencyStats(slaSeconds),
		}
		if start > 0 {
			sh.engine.RunUntil(start)
		}
		sh.wm = waking.New(sh.engine, lead, r.onWoL, vmTable)
		if r.net != nil {
			sh.wm.SetDelivery(r.net, r.onLossyWoL)
		}
		r.shards = append(r.shards, sh)
	}
	r.util = make([]float64, len(c.Hosts()))
	for i, h := range c.Hosts() {
		profile := cfg.Profile
		if p, ok := cfg.HostProfiles[h.ID]; ok {
			profile = p
		}
		sh := r.shards[i/cfg.ShardHostSpan]
		rt := &hostRT{
			host:    h,
			profile: profile,
			machine: power.NewMachine(profile, float64(start)),
			sh:      sh,
		}
		rt.monitor = suspend.NewMonitor(suspend.Config{
			UseGrace: cfg.UseGrace,
			MaxGrace: simtime.Duration(math.Round(cfg.MaxGraceSeconds)),
		}, rt)
		rt.monitor.OnResume(start, 0.5)
		rt.resumedAt = start
		sh.hosts = append(sh.hosts, rt)
		r.hosts = append(r.hosts, rt)
		if r.byMAC[h.ID] != nil {
			panic(fmt.Sprintf("dcsim: duplicate host ID %d", h.ID))
		}
		r.byMAC[h.ID] = rt
	}
	return r
}

// onWoL handles a Wake-on-LAN delivery: the suspended host resumes.
// WoLs are generated by the host's own shard (packet and scheduled
// wakes are self-wakes) or by the serial management phases, so the
// state it touches — the host, its shard's engine clock and waking
// module, its residents' entries — is never contended.
func (r *Runner) onWoL(mac netsim.MAC) {
	rt := r.byMAC[mac]
	if rt.machine.State() != power.StateSuspended && rt.machine.State() != power.StateOff {
		return // already awake or mid-transition; duplicate WoL
	}
	r.resumeHost(rt, 0)
}

// onLossyWoL handles a wake transaction resolved through the lossy
// delivery model: the outcome's attempts, retries, relay legs and lost
// wakes land in the shard's wake accounting, and the host resumes after
// the transaction's silence — retransmission backoff when a retry got
// through, the full give-up silence when every attempt was dropped (the
// manager's out-of-band recovery; a lost wake delays the host, it never
// strands it). The energy ledger is charged so packet loss can never
// read as savings: each retransmission and recovery costs joules, and
// the silence itself claws back the suspension credit at the peak-vs-
// suspended differential.
func (r *Runner) onLossyWoL(mac netsim.MAC, out netsim.WakeOutcome) {
	rt := r.byMAC[mac]
	if rt.machine.State() != power.StateSuspended && rt.machine.State() != power.StateOff {
		return // duplicate WoL of an awake host: nothing waits on it
	}
	sh := rt.sh
	sh.wake.Attempts += uint64(out.Attempts)
	sh.wake.Retries += uint64(out.Attempts - 1)
	sh.wake.PathJoules += float64(out.Attempts-1) * r.netCfg.RetryJoules
	if out.Relayed {
		sh.wake.RelayedWakes++
		sh.wake.PathJoules += r.netCfg.RelayWakeJoules
	}
	if !out.Delivered {
		sh.wake.LostWakes++
		sh.wake.PathJoules += r.netCfg.RecoveryJoules
	}
	if out.DelaySeconds > 0 {
		sh.wake.LostSLASeconds += out.DelaySeconds
		sh.wake.PathJoules += out.DelaySeconds * (rt.profile.PeakWatts - rt.profile.SuspendedWatts)
	}
	rt.lastWakeDelay = out.DelaySeconds
	r.resumeHost(rt, out.DelaySeconds)
}

// resumeHost executes a suspended/off host's resume, delay seconds
// after the wake instant (0 under perfect delivery; a lossy wake's
// retransmission or recovery silence otherwise). Callers have already
// verified the machine is suspended or off.
func (r *Runner) resumeHost(rt *hostRT, delay float64) {
	sh := rt.sh
	// The wake instant is the engine clock, clamped forward to the
	// event-mode walk's within-hour cursor (the engine only advances at
	// hour boundaries) and to the machine's last accounted instant (a
	// scheduled WoL can land inside the tail of a just-completed
	// suspension: the host cannot resume before it finished suspending).
	now := float64(sh.engine.Now())
	if en := float64(sh.eventNow); en > now {
		now = en
	}
	if la := rt.machine.LastAccounted(); la > now {
		now = la
	}
	if delay > 0 {
		now += delay
	}
	rt.machine.Transition(now, power.StateResuming)
	rt.machine.Transition(now+rt.profile.ResumeLatency, power.StateActive)
	rt.resumedAt = simtime.Time(math.Ceil(now + rt.profile.ResumeLatency))
	// The probability only sizes the grace time; without grace the
	// monitor ignores it, and no model is read. The residents' IPs come
	// from their models' one-hour memos (core.Model.IPAt), which a miss
	// writes; only the host's own shard reads them here.
	p := 0.0
	if r.cfg.UseGrace {
		p = rt.host.Probability(simtime.HourOf(simtime.Time(now)))
	}
	rt.monitor.OnResume(rt.resumedAt, p)
	sh.wm.HostResumed(netsim.MAC(rt.host.ID))
}

// Run executes the configured number of hours and returns the results.
// When Config.Context is cancelled, Run returns nil at the next hour
// boundary — the caller owns surfacing the cancellation.
func (r *Runner) Run() *Result {
	c := r.cluster
	if !r.restored {
		// Initial placement of unplaced VMs through the policy. A
		// restored runner skips it: placements came from the checkpoint.
		for _, v := range c.VMs() {
			if v.Host() == nil {
				h, err := r.policy.PlaceNew(c, v, r.cfg.StartHour)
				if err != nil {
					panic(fmt.Sprintf("dcsim: initial placement failed: %v", err))
				}
				if err := c.Place(v, h); err != nil {
					panic(err)
				}
			}
		}
	}

	// The last hour any IP read of the run can reach: a round at the
	// last hour reads readAheadHours past it. DESIGN.md ("Idleness-model
	// fast paths") lists every read site.
	horizon := r.cfg.StartHour + simtime.Hour(r.cfg.Hours-1+readAheadHours)
	timed := r.cfg.Probe != nil && r.cfg.ProbeTimings
	var tPhase time.Time
	for i := r.startIndex; i < r.cfg.Hours; i++ {
		hr := r.cfg.StartHour + simtime.Hour(i)
		t0 := hr.Start()
		// Fire scheduled wakes due before this hour (the waking modules'
		// ahead-of-time WoLs). Serial, in shard order: the handful of
		// due events per hour is cheap, and same-instant wakes of
		// distinct hosts commute, so the per-shard walk reproduces the
		// single-engine walk exactly.
		for _, sh := range r.shards {
			sh.engine.RunUntil(t0)
		}
		// Cooperative cancellation and run checkpoints live at the hour
		// boundary — the one instant the shards' state is globally
		// consistent. Both are probe-style: nil hook, zero cost.
		if r.cfg.Context != nil {
			select {
			case <-r.cfg.Context.Done():
				return nil
			default:
			}
		}
		if r.cfg.Checkpoint != nil && i > r.startIndex && i%r.cfg.CheckpointEveryHours == 0 {
			r.cfg.Checkpoint(hr, checkpoint.Encode(r.captureState(hr)))
		}
		// Flight recorder: the previous hour is complete (its boundary
		// events just fired), so sample it before this hour mutates
		// anything. Observe-only — see probe.go.
		if r.cfg.Probe != nil && i > 0 {
			r.probeHour(i-1, hr-1)
		}
		if timed {
			tPhase = time.Now()
		}

		// VM creations scheduled for this hour (Nova path).
		rest := r.pending[:0]
		for _, a := range r.pending {
			if a.At != hr {
				rest = append(rest, a)
				continue
			}
			c.AddVM(a.VM)
			h, err := r.policy.PlaceNew(c, a.VM, hr)
			if err != nil {
				panic(fmt.Sprintf("dcsim: arrival placement failed: %v", err))
			}
			if err := c.Place(a.VM, h); err != nil {
				panic(err)
			}
			r.wakeForManagement(r.hosts[h.Pos()])
		}
		r.pending = rest

		// VM terminations scheduled for this hour.
		remaining := r.departs[:0]
		for _, d := range r.departs {
			if d.At != hr {
				remaining = append(remaining, d)
				continue
			}
			c.Remove(d.VM)
		}
		r.departs = remaining

		// Consolidation round.
		if i%r.cfg.RebalanceEvery == 0 {
			before := r.snapshotPlacement()
			r.policy.Rebalance(c, hr)
			r.applyPlacementChanges(before)
		}
		if timed {
			r.phaseNanos[0] = int64(time.Since(tPhase))
			tPhase = time.Now()
		}

		// Parallel host phase: each shard plays the hour on its hosts in
		// global order. Shards share no mutable state here — wakes are
		// self-wakes on the shard's own engine and waking module, latency
		// lands in shard-local collectors, and per-VM entries and models
		// are touched only by the shard owning the VM's current host
		// (placement only changes in the serial phases).
		par.For(r.cfg.ShardWorkers, len(r.shards), func(s int) {
			sh := r.shards[s]
			sh.obsModels = sh.obsModels[:0]
			sh.obsActs = sh.obsActs[:0]
			for _, rt := range sh.hosts {
				r.playHour(rt, hr, t0)
			}
		})
		if timed {
			r.phaseNanos[1] = int64(time.Since(tPhase))
			tPhase = time.Now()
		}

		// Parallel observation phase, in runs that read the models: feed
		// each shard's batch, gathered by the host phase, in one pass
		// (host-major, so a model is touched by exactly one shard).
		// Models are mutually independent, so the host-major order
		// observes the same bits the serial VM-order loop would. The
		// calendar stamp is shared across VMs (it only depends on hr).
		// Cells no read of the run comes back to are not stored; an
		// observe that skips one leaves the hour's IP in the model's
		// memo for the boundary's scheduled wakes to read.
		if r.observe {
			st := hr.Stamp()
			par.For(r.cfg.ShardWorkers, len(r.shards), func(s int) {
				sh := r.shards[s]
				core.ObserveColumn(st, sh.obsModels, sh.obsActs, horizon)
			})
		}
		if timed {
			r.phaseNanos[2] = int64(time.Since(tPhase))
			tPhase = time.Now()
		}
		// Serial reduction: the policy's hourly recorder.
		if rec, ok := r.policy.(cluster.HourRecorder); ok {
			rec.RecordHour(c, hr, r.util)
		}
		if timed {
			r.phaseNanos[3] = int64(time.Since(tPhase))
		}
	}

	end := (r.cfg.StartHour + simtime.Hour(r.cfg.Hours)).Start()
	for _, sh := range r.shards {
		sh.engine.RunUntil(end)
	}
	// Flight recorder: the final hour's boundary events just fired.
	if r.cfg.Probe != nil && r.cfg.Hours > 0 {
		r.probeHour(r.cfg.Hours-1, r.cfg.StartHour+simtime.Hour(r.cfg.Hours-1))
	}
	for _, rt := range r.hosts {
		rt.machine.Finish(float64(end))
	}
	return r.collect()
}

// assignmentsAll maps every expected VM (initial + arrivals) to its
// host ID, with -1 for unplaced, not-yet-created or departed VMs — the
// placement a PlacementProbe observes. The returned slice is reused
// across hours.
func (r *Runner) assignmentsAll() []int {
	if cap(r.assignBuf) < len(r.allVMs) {
		r.assignBuf = make([]int, len(r.allVMs))
	}
	out := r.assignBuf[:len(r.allVMs)]
	for i, v := range r.allVMs {
		if h := v.Host(); h != nil {
			out[i] = h.ID
		} else {
			out[i] = -1
		}
	}
	return out
}

// snapshotPlacement records each VM's host (nil = unplaced) before a
// rebalance, in cluster VM order: a policy's Rebalance only moves VMs,
// so the registry keeps its order and positions pair the two sides of
// applyPlacementChanges. The returned slice is reused across rounds.
func (r *Runner) snapshotPlacement() []*cluster.Host {
	r.snapBuf = r.snapBuf[:0]
	for _, v := range r.cluster.VMs() {
		r.snapBuf = append(r.snapBuf, v.Host())
	}
	return r.snapBuf
}

// applyPlacementChanges follows the placements a rebalance changed: a
// VM that leaves a host drops its hr-timer, which the next refresh on
// its new host registers afresh. Hosts participating in a migration are
// resumed first: live migration needs both endpoints powered (the
// paper's manager wakes a drowsy server before migrating), and this also
// retires the switch's stale VM→MAC mappings for those hosts.
func (r *Runner) applyPlacementChanges(before []*cluster.Host) {
	vms := r.cluster.VMs()
	if len(vms) != len(before) {
		panic(fmt.Sprintf("dcsim: policy %s changed the VM registry during Rebalance (%d → %d VMs)",
			r.policy.Name(), len(before), len(vms)))
	}
	for i, v := range vms {
		prev, cur := before[i], v.Host()
		if prev == cur {
			continue
		}
		if prev != nil {
			r.wakeForManagement(r.hosts[prev.Pos()])
			r.vms[v.Slot()].hasTimer = false
		}
		if cur != nil {
			r.wakeForManagement(r.hosts[cur.Pos()])
		}
	}
}

// wakeForManagement resumes a suspended/off host for a management
// operation (migration endpoint), without request-latency accounting.
func (r *Runner) wakeForManagement(rt *hostRT) {
	if s := rt.machine.State(); s == power.StateSuspended || s == power.StateOff {
		r.onWoL(netsim.MAC(rt.host.ID))
	}
}

// playHour simulates one host for one hour starting at t0. It runs on
// the host's shard (possibly concurrently with other shards' hosts)
// and touches only shard-owned state plus its residents' entries.
func (r *Runner) playHour(rt *hostRT, hr simtime.Hour, t0 simtime.Time) {
	h := rt.host
	sh := rt.sh
	rt.packetWoken = false
	rt.lastWakeDelay = 0

	// Empty host: power it off (plain consolidation behaviour, enabled
	// in every mode). The instant is clamped past any same-hour resume
	// (a management wake for an outgoing migration ends at t0+resume
	// latency).
	if h.NumVMs() == 0 {
		r.util[h.Pos()] = 0
		from := float64(t0)
		if ra := float64(rt.resumedAt); ra > from {
			from = ra
		}
		switch rt.machine.State() {
		case power.StateActive:
			rt.machine.Transition(from, power.StateOff)
		case power.StateSuspended:
			rt.machine.Transition(from, power.StateOff)
			sh.wm.HostResumed(netsim.MAC(h.ID)) // clear stale mappings
		}
		return
	}

	// Activity profile of the hour, read once per VM (several steps
	// below consult this hour's levels): any VM above the noise floor
	// pins the host awake for the whole hour. The utilization sum
	// accumulates in h.VMs() order, exactly as Host.Utilization does,
	// so the unclamped quotient stored for the hour recorder is
	// Host.Utilization's own result. In runs that observe, levels join
	// the shard's observation batch.
	vms := h.VMs()
	if cap(sh.actBuf) < len(vms) {
		sh.actBuf = make([]float64, len(vms))
	}
	acts := sh.actBuf[:len(vms)]
	busyHour := false
	demand := 0.0
	for i, v := range vms {
		a := v.Activity(hr)
		acts[i] = a
		if r.observe {
			sh.obsModels = append(sh.obsModels, v.Model)
			sh.obsActs = append(sh.obsActs, a)
		}
		if a >= core.DefaultNoiseFloor {
			busyHour = true
		}
		demand += a * float64(v.VCPUs)
	}
	util := 0.0
	if h.VCPUs != 0 {
		util = demand / float64(h.VCPUs)
	}
	r.util[h.Pos()] = util
	if util > 1 {
		util = 1
	}

	// Refresh the hr-timers of timer-driven VMs: a timer still pending
	// after t0 is kept, an expired or missing one is registered at the
	// VM's next active hour (always after t0). The host's waking date
	// is the earliest timer kept or registered; an expired one that
	// finds no next active hour stays in the VM's entry but no longer
	// counts. Every suspension check of the hour runs after this.
	rt.hasWake = false
	for _, v := range vms {
		if !v.TimerDriven {
			continue
		}
		vr := &r.vms[v.Slot()]
		if !vr.hasTimer || vr.timerAt <= t0 {
			next, ok := r.nextActiveHour(v, hr)
			if !ok {
				continue
			}
			at := next.Start()
			// At event resolution the VM's work begins at its first
			// within-hour burst, not the hour boundary: an hr-timer at
			// the hour start would wake the host up to an hour early.
			// Sub-floor activity keeps the hour-start date — such hours
			// never take the event walk, so their wake must still land
			// at the boundary the hourly path honors.
			if r.cfg.Resolution == ResolutionEvent && v.Activity(next) >= core.DefaultNoiseFloor {
				if bs := v.Bursts(next); len(bs) > 0 {
					at = at.Add(simtime.Duration(bs[0].Start))
				}
			}
			vr.timerAt, vr.hasTimer = at, true
		}
		if !rt.hasWake || vr.timerAt < rt.wakeAt {
			rt.wakeAt, rt.hasWake = vr.timerAt, true
		}
	}

	state := rt.machine.State()
	if busyHour {
		// Sub-hourly mode: hours containing activity transitions are
		// simulated at event granularity. playHourEvents declines (and
		// mutates nothing) when the merged bursts cover the whole hour,
		// in which case the O(1) hourly path below is exact.
		if r.cfg.Resolution == ResolutionEvent && r.playHourEvents(rt, hr, t0, vms, acts, util) {
			return
		}
		first := firstActive(vms, acts)
		// The host must be awake. A powered-off (empty → refilled) or
		// suspended host that was not already resumed by a scheduled
		// wake is woken by the first inbound request.
		if state == power.StateSuspended || state == power.StateOff {
			if first != nil && !first.TimerDriven {
				sh.wm.PacketArrived(netsim.Packet{Dst: netsim.VMID(first.Slot())})
			}
			// The packet may have hit a stale mapping (the switch only
			// updates VM→MAC on suspension) or the VM is timer-driven
			// with a missed date: if this host is still asleep, the
			// manager delivers a direct WoL.
			if s := rt.machine.State(); s == power.StateSuspended || s == power.StateOff {
				r.onWoL(netsim.MAC(h.ID))
			}
			rt.packetWoken = first != nil && !first.TimerDriven
		}
		// Active hour: utilization applies from the (possibly delayed)
		// resume instant to the end of the hour. No suspension check
		// runs inside a busy hour, which is why hostRT.Idle can always
		// report an idle host.
		wakeEnd := rt.resumedAt
		if wakeEnd < t0 {
			wakeEnd = t0
		}
		rt.machine.SetUtilization(float64(wakeEnd), util)
		r.recordRequests(rt, vms, acts, first)
		rt.machine.SetUtilization(float64(hr.End()), 0)
		return
	}

	// Fully idle hour. The state may have changed since the snapshot
	// (e.g. a stale-mapping wake from another host's packet this hour),
	// so re-read it and clamp accounting to the resume instant.
	switch rt.machine.State() {
	case power.StateSuspended, power.StateOff:
		return // stays asleep
	default:
		from := t0
		if rt.resumedAt > from {
			from = rt.resumedAt
		}
		rt.machine.SetUtilization(float64(from), 0)
		r.maybeSuspend(rt, hr, from)
	}
}

// maybeSuspend runs the suspending module at time from and executes the
// transition when allowed; the transition must complete within hour hr.
func (r *Runner) maybeSuspend(rt *hostRT, hr simtime.Hour, from simtime.Time) {
	r.maybeSuspendUntil(rt, from, hr.End())
}

// maybeSuspendUntil runs the suspending module at time from, requiring
// the whole transition to complete strictly before limit — the next
// known activity instant: the hour boundary in hourly mode (grace
// spilling past it is re-evaluated next hour), the next burst start in
// event mode (an in-flight wake aborts a suspension that cannot finish
// first).
func (r *Runner) maybeSuspendUntil(rt *hostRT, from, limit simtime.Time) {
	if !r.cfg.EnableSuspend {
		return
	}
	if rt.machine.State() != power.StateActive {
		return
	}
	checkAt := from
	if g := rt.monitor.GraceUntil(); g > checkAt {
		checkAt = g
	}
	if checkAt >= limit {
		return // grace spills past the next activity; re-evaluated then
	}
	d := rt.monitor.Check(checkAt)
	if !d.Suspend {
		return
	}
	suspendAt := checkAt.Add(suspend.DecisionOverhead)
	done := float64(suspendAt) + rt.profile.SuspendLatency
	if done >= float64(limit) {
		return // transition would spill past the next activity
	}
	rt.machine.Transition(float64(suspendAt), power.StateSuspending)
	rt.machine.Transition(done, power.StateSuspended)
	rt.monitor.OnSuspend()
	// The switch copies the address list, so a reused shard buffer serves.
	sh := rt.sh
	sh.addrBuf = vmAddrs(sh.addrBuf[:0], rt.host)
	sh.wm.HostSuspended(netsim.MAC(rt.host.ID), sh.addrBuf, d.WakeAt, d.HasWake)
}

// vmAddrs appends the switch addresses (slots) of h's residents to dst.
func vmAddrs(dst []netsim.VMID, h *cluster.Host) []netsim.VMID {
	for _, v := range h.VMs() {
		dst = append(dst, netsim.VMID(v.Slot()))
	}
	return dst
}

// playHourEvents simulates one busy hour of a host at event
// granularity: the floor-active VMs' within-hour burst timelines are
// merged into the host's awake set, and the suspending module runs in
// every idle gap, so the grace time, the decision overhead and the
// suspend/resume latencies compete at their true second scale. It
// reports false — mutating nothing — when the merged bursts cover the
// whole hour, in which case the caller's O(1) hourly path is exact;
// that bound is what keeps sub-hourly runs close to hourly cost on
// workloads with few transition hours.
//
// Modelling choices, chosen to stay consistent with the hourly path:
// bursts run at full tilt, so the hour's demand is compressed into the
// awake seconds (work is conserved up to the capacity clamp, and the
// linear power model then yields the same active-energy integral);
// sub-floor activity is noise — it neither pins the host awake nor
// blocks gap suspension, exactly as it cannot keep an idle hour awake;
// and model observations and placement stay hourly, because the
// idleness model's resolution is the hour by design.
func (r *Runner) playHourEvents(rt *hostRT, hr simtime.Hour, t0 simtime.Time, vms []*cluster.VM, acts []float64, util float64) bool {
	sh := rt.sh
	sh.tlBuf = sh.tlBuf[:0]
	for i, v := range vms {
		if acts[i] >= core.DefaultNoiseFloor {
			sh.tlBuf = append(sh.tlBuf, v.Bursts(hr))
		}
	}
	awake := timeline.Union(sh.awakeBuf[:0], sh.tlBuf...)
	sh.awakeBuf = awake[:0]
	if len(awake) == 0 {
		return false
	}
	if awake[0].Start == 0 && int(awake[0].End) == timeline.SecondsPerHour {
		return false // no within-hour transitions; the hourly path is exact
	}
	sh.eventHours++
	defer func() { sh.eventNow = 0 }()

	// Bursts run at full tilt: the hour's utilization compresses into
	// the awake seconds, clamped at capacity.
	eventUtil := util * float64(timeline.SecondsPerHour) / float64(timeline.BusySeconds(awake))
	if eventUtil > 1 {
		eventUtil = 1
	}

	if cap(sh.wakeBuf) < len(vms) {
		sh.wakeBuf = make([]int, len(vms))
	}
	wakes := sh.wakeBuf[:len(vms)]
	for i := range wakes {
		wakes[i] = 0
	}
	if cap(sh.delayBuf) < len(vms) {
		sh.delayBuf = make([]float64, len(vms))
	}
	delays := sh.delayBuf[:len(vms)]
	for i := range delays {
		delays[i] = 0
	}

	// Head gap: a host still awake from the previous hour (or resumed
	// by a management or ahead-of-time wake) may suspend before the
	// first burst.
	headFrom := t0
	if rt.resumedAt > headFrom {
		headFrom = rt.resumedAt
	}
	if first := t0.Add(simtime.Duration(awake[0].Start)); headFrom < first {
		r.maybeSuspendUntil(rt, headFrom, first)
	}

	hourEnd := hr.End()
	for k := range awake {
		s := t0.Add(simtime.Duration(awake[k].Start))
		e := t0.Add(simtime.Duration(awake[k].End))
		// A scheduled wake due at or before this burst fires first, at
		// its true (lead-compensated) instant: hr-timers of timer-driven
		// VMs are clamped to their wake hour's first burst, so without
		// this the ahead-of-time WoL — queued at a mid-hour instant the
		// engine only reaches at the next boundary — would lose to the
		// packet fallback and the host would resume late.
		r.fireDueScheduledWake(rt, s)
		sh.eventNow = s
		if st := rt.machine.State(); st == power.StateSuspended || st == power.StateOff {
			// The burst's first request wakes the host (the sub-hourly
			// form of the hourly path's packet wake), falling back to a
			// direct manager WoL on a stale mapping or a timer-driven
			// VM with a missed date.
			fi := firstBurstIdx(vms, acts, hr, awake[k].Start)
			rt.lastWakeDelay = 0
			if fi >= 0 {
				sh.wm.PacketArrived(netsim.Packet{Dst: netsim.VMID(vms[fi].Slot())})
			}
			if st := rt.machine.State(); st == power.StateSuspended || st == power.StateOff {
				r.onWoL(netsim.MAC(rt.host.ID))
			}
			if fi >= 0 {
				wakes[fi]++
				delays[fi] += rt.lastWakeDelay
			}
		}
		from := s
		if rt.resumedAt > from {
			from = rt.resumedAt
		}
		if from < e {
			rt.machine.SetUtilization(float64(from), eventUtil)
			rt.machine.SetUtilization(float64(e), 0)
		}
		limit := hourEnd
		if k+1 < len(awake) {
			limit = t0.Add(simtime.Duration(awake[k+1].Start))
		}
		gapFrom := e
		if rt.resumedAt > gapFrom {
			gapFrom = rt.resumedAt
		}
		if gapFrom < limit {
			r.maybeSuspendUntil(rt, gapFrom, limit)
		}
	}
	r.recordEventRequests(rt, vms, acts, wakes, delays)
	return true
}

// fireDueScheduledWake delivers a pending scheduled wake of a sleeping
// host whose fire instant falls at or before limit, clamping the
// machine's resume to that instant (the engine clock itself only
// advances at hour boundaries). §V-B's ahead-of-time semantics then
// hold at second scale: the host is awake when its hr-timer expires.
func (r *Runner) fireDueScheduledWake(rt *hostRT, limit simtime.Time) {
	if s := rt.machine.State(); s != power.StateSuspended && s != power.StateOff {
		return
	}
	sh := rt.sh
	mac := netsim.MAC(rt.host.ID)
	due, ok := sh.wm.ScheduledFire(mac)
	if !ok || due > limit {
		return
	}
	prev := sh.eventNow
	sh.eventNow = due
	sh.wm.FireScheduled(mac)
	sh.eventNow = prev
}

// firstBurstIdx returns the index of the lowest-ID request-driven
// floor-active VM with a burst starting at second sec of hour hr, or
// -1 when only timer-driven bursts start there (their wake is a
// scheduled date, not a latency-charged packet).
func firstBurstIdx(vms []*cluster.VM, acts []float64, hr simtime.Hour, sec uint16) int {
	best := -1
	for i, v := range vms {
		if acts[i] < core.DefaultNoiseFloor || v.TimerDriven {
			continue
		}
		for _, b := range v.Bursts(hr) {
			if b.Start > sec {
				break
			}
			if b.Start == sec {
				if best < 0 || v.ID < vms[best].ID {
					best = i
				}
				break
			}
		}
	}
	return best
}

// recordEventRequests samples request latencies for a transition hour:
// each packet wake charges the resume latency to the waking VM's first
// request of that burst (a host can be woken several times per hour in
// event mode); all remaining requests pay the base service time. A VM
// woken more often than its modeled request count still records one
// request per wake — each wake is, by construction, a real inbound
// request, and dropping it would make the latency stats disagree with
// the machine-level PacketWakes counter — so the hour's sample count
// is max(n, wakes), never less than the hourly model's n.
func (r *Runner) recordEventRequests(rt *hostRT, vms []*cluster.VM, acts []float64, wakes []int, delays []float64) {
	sh := rt.sh
	penalty := rt.profile.ResumeLatency
	if r.cfg.NaiveResume {
		penalty = rt.profile.NaiveResumeLatency
	}
	for i, v := range vms {
		a := acts[i]
		if a <= 0 || v.TimerDriven {
			continue
		}
		n := int(a * float64(r.cfg.RequestsPerHour))
		if n < 1 {
			n = 1
		}
		w := wakes[i]
		if n < w {
			n = w
		}
		lat := serviceSeconds + penalty
		for j := 0; j < w; j++ {
			l := lat
			if j == 0 {
				// The VM's accumulated lossy-delivery silence lands on
				// its first wake request (zero under perfect delivery).
				l += delays[i]
			}
			sh.wakeLatency.Record(l)
			sh.latency.Record(l)
		}
		if rest := n - w; rest > 0 {
			sh.latency.RecordN(serviceSeconds, rest)
		}
	}
}

// firstActive picks the active VM whose request arrives first this
// hour (deterministically the lowest ID among the active ones).
func firstActive(vms []*cluster.VM, acts []float64) *cluster.VM {
	var first *cluster.VM
	for i, v := range vms {
		if acts[i] <= 0 {
			continue
		}
		if first == nil || v.ID < first.ID {
			first = v
		}
	}
	return first
}

// recordRequests samples request latencies for the hour's active,
// request-driven VMs. The first request of a packet-woken host pays the
// resume latency.
func (r *Runner) recordRequests(rt *hostRT, vms []*cluster.VM, acts []float64, first *cluster.VM) {
	wakePenalty := 0.0
	if rt.packetWoken {
		if r.cfg.NaiveResume {
			wakePenalty = rt.profile.NaiveResumeLatency
		} else {
			wakePenalty = rt.profile.ResumeLatency
		}
		// A lossy wake's retransmission/recovery silence lands on the
		// same first request (zero under perfect delivery).
		wakePenalty += rt.lastWakeDelay
	}
	for i, v := range vms {
		a := acts[i]
		if a <= 0 || v.TimerDriven {
			continue
		}
		n := int(a * float64(r.cfg.RequestsPerHour))
		if n < 1 {
			n = 1
		}
		// All requests cost the base service time except the first one
		// of the packet-woken VM, which pays the resume latency on top.
		if v == first && wakePenalty > 0 {
			lat := serviceSeconds + wakePenalty
			rt.sh.wakeLatency.Record(lat)
			rt.sh.latency.Record(lat)
			n--
		}
		rt.sh.latency.RecordN(serviceSeconds, n)
	}
}

// nextActiveHour scans forward for the VM's next hour with activity.
func (r *Runner) nextActiveHour(v *cluster.VM, from simtime.Hour) (simtime.Hour, bool) {
	for d := 1; d <= timerScanHorizonHours; d++ {
		h := from + simtime.Hour(d)
		if v.Activity(h) > 0 {
			return h, true
		}
	}
	return 0, false
}

// collect assembles the result: per-host figures in global host order,
// shard-owned aggregates reduced in shard order. Both orders are fixed,
// and every reduction (latency multiset merge, counter sums) is
// order-independent anyway, so the result is bit-identical for any
// worker count — including the pre-shard serial runtime.
func (r *Runner) collect() *Result {
	c := r.cluster
	latency := metrics.NewLatencyStats(slaSeconds)
	wakeLatency := metrics.NewLatencyStats(slaSeconds)
	res := &Result{
		Policy:      r.policy.Name(),
		Hours:       r.cfg.Hours,
		Latency:     latency,
		WakeLatency: wakeLatency,
		Migrations:  c.Migrations(),
	}
	for _, sh := range r.shards {
		latency.Merge(sh.latency)
		wakeLatency.Merge(sh.wakeLatency)
		scheduled, packet := sh.wm.Stats()
		res.ScheduledWakes += scheduled
		res.PacketWakes += packet
		res.EventHours += sh.eventHours
	}
	if r.net != nil {
		for _, sh := range r.shards {
			res.Wake.Merge(sh.wake)
		}
		// Relay standing draw runs for the whole horizon regardless of
		// wake traffic — the price of owning the reliable unicast leg.
		res.Wake.PathJoules += float64(r.cfg.Hours) * 3600 *
			float64(len(r.netCfg.RelaySubnets)) * r.netCfg.RelayWatts
	}
	for _, v := range r.allVMs {
		res.PerVMMigrations = append(res.PerVMMigrations, v.Migrations())
	}
	var suspSum float64
	for _, rt := range r.hosts {
		res.HostEnergyKWh = append(res.HostEnergyKWh, rt.machine.KWh())
		res.EnergyKWh += rt.machine.KWh()
		f := rt.machine.SuspendedFraction()
		res.SuspendedFrac = append(res.SuspendedFrac, f)
		suspSum += f
		res.SuspendCounts = append(res.SuspendCounts, rt.machine.SuspendCount())
	}
	if n := len(c.Hosts()); n > 0 {
		res.GlobalSuspFrac = suspSum / float64(n)
	}
	if r.net != nil {
		// The wake path's joules join the hosts' integral so losing
		// packets can never report as energy savings.
		res.EnergyKWh += res.Wake.PathJoules / metrics.JoulesPerKWh
	}
	return res
}
