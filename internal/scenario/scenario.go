package scenario

import (
	"fmt"
	"math"

	"drowsydc/internal/cluster"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/neat"
	"drowsydc/internal/oasis"
	"drowsydc/internal/power"
	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
	"drowsydc/internal/trace"
)

// HostClass describes one homogeneous slice of a (possibly
// heterogeneous) fleet: Count hosts sharing capacities and a power
// profile.
type HostClass struct {
	// Name labels the class ("standard", "legacy", ...).
	Name string
	// Count is the number of hosts of this class.
	Count int
	// MemGB and VCPUs are per-host capacities.
	MemGB int
	VCPUs int
	// Slots bounds VMs per host (0 = unbounded).
	Slots int
	// Profile is the class's power/latency profile. The zero value
	// selects power.DefaultProfile() (the paper's testbed host).
	Profile power.Profile
}

// WorkloadGroup fans one workload archetype out over a VM population.
type WorkloadGroup struct {
	// Name labels the group; member VMs are named Name-NNN.
	Name string
	// Count is the number of VMs in the group.
	Count int
	// Kind classifies the members (LLMI/LLMU/SLMU).
	Kind cluster.Kind
	// MemGB and VCPUs are per-VM demands.
	MemGB int
	VCPUs int
	// Gen is the archetype trace.
	Gen trace.Generator
	// Replicated makes every member replay Gen exactly — the shape the
	// shared-trace store collapses to a single memo (a load-balanced
	// service behind identical replicas). When false, each member runs a
	// phase-shifted, re-jittered variant of Gen, modelling
	// structurally-alike-but-distinct workloads.
	Replicated bool
	// ShiftStepHours is the phase-shift step between consecutive
	// non-replicated members (member i is shifted i·step hours, wrapped
	// within the week).
	ShiftStepHours int
	// Seed diversifies variant jitter between groups.
	Seed uint64
	// TimerDriven marks members whose activity is timer-initiated
	// (backup jobs): hosts are woken ahead of schedule instead of paying
	// the request wake latency.
	TimerDriven bool
	// ArriveEvery, when positive, turns the group into a churn group:
	// member i is created i·ArriveEvery hours after the scenario start
	// (member 0 starts placed) and enters through the policy's PlaceNew
	// path, like a Nova boot request.
	ArriveEvery int
	// LifetimeHours, when positive, terminates each member that many
	// hours after its creation (the SLMU lifecycle: capacity returns to
	// the pool).
	LifetimeHours int
	// StartHost pins the members present at the start to one host: its
	// 1-based position in the fleet, hosts numbered across the classes
	// in declaration order. 0 lets the policy place them; churn arrivals
	// are always placed by the policy.
	StartHost int
}

// PolicyConfig is one column of a scenario's comparison: a
// consolidation policy plus the runtime switches the paper varies.
type PolicyConfig struct {
	// Label names the column in reports ("neat-s3").
	Label string
	// Policy is the registry name of the column's policy ("drowsy",
	// "drowsy-full", "neat", "oasis").
	Policy string
	// New, when set, constructs the column's policy instead of the
	// registry entry Policy names: a variant the registry does not list,
	// such as Oasis over a 72-hour window.
	New func() cluster.Policy
	// Suspend enables S3 on idle non-empty hosts.
	Suspend bool
	// Grace enables the anti-oscillation grace time.
	Grace bool
	// NaiveResume charges the unoptimized resume latency.
	NaiveResume bool
}

// DefaultPolicies returns the paper's four-way comparison: Drowsy-DC in
// full-relocation evaluation mode, Neat with S3, vanilla Neat, and
// Oasis.
func DefaultPolicies() []PolicyConfig {
	return []PolicyConfig{
		{Label: "drowsy", Policy: "drowsy-full", Suspend: true, Grace: true},
		{Label: "neat-s3", Policy: "neat", Suspend: true},
		{Label: "neat", Policy: "neat"},
		{Label: "oasis", Policy: "oasis", Suspend: true},
	}
}

// policies is the policy registry: the names a PolicyConfig can carry.
var policies = map[string]func() cluster.Policy{
	"drowsy":      func() cluster.Policy { return drowsy.New(drowsy.Options{}) },
	"drowsy-full": func() cluster.Policy { return drowsy.New(drowsy.Options{FullRelocation: true}) },
	"neat":        func() cluster.Policy { return neat.New() },
	"oasis":       func() cluster.Policy { return oasis.New(oasis.Options{}) },
}

// newPolicy builds a fresh instance of the column's policy.
func (pc PolicyConfig) newPolicy() cluster.Policy {
	if pc.New != nil {
		return pc.New()
	}
	return policies[pc.Policy]()
}

// Scenario is a fully declarative datacenter experiment: hosts,
// workloads, horizon and the policy columns to compare. It is pure
// data; Run materializes and executes it.
type Scenario struct {
	Name        string
	Description string
	// Start is the calendar hour the run begins at.
	Start simtime.Hour
	// HorizonHours is the simulated duration.
	HorizonHours int
	// Hosts composes the fleet from host classes.
	Hosts []HostClass
	// Groups composes the workload from archetype populations.
	Groups []WorkloadGroup
	// RebalanceEvery is the consolidation period in hours (0 = every
	// hour). Long-horizon scenarios raise it: the paper consolidates
	// hourly on an 8-VM testbed, but a year-long fleet sweep only needs
	// placement to track calendar-scale idleness shifts.
	RebalanceEvery int
	// RequestsPerHour scales SLA request sampling (0 = dcsim default).
	RequestsPerHour int
	// Policies are the comparison columns (nil = DefaultPolicies).
	Policies []PolicyConfig
	// Resolution selects hourly (default) or event-driven sub-hourly
	// host dynamics (dcsim.ResolutionEvent): active hours expand into
	// deterministic within-hour bursts, so the grace and latency knobs
	// act at their true second scale. The hourly default reproduces
	// pre-timeline results bit for bit.
	Resolution dcsim.Resolution
	// Network declares the broadcast-domain topology and the unreliable
	// Wake-on-LAN fabric (nil = perfect delivery, byte-identical to the
	// pre-network simulator). The wake-loss and retry-timeout sweep
	// parameters write into a per-point copy of it.
	Network *Network
	// Tuning overrides runtime knobs (grace bound, transition latencies,
	// variant jitter); the zero value changes nothing. Sweep parameters
	// write these fields point by point.
	Tuning Tuning
	// Sweep, when set, names the parameter axis RunSweep fans the
	// scenario out over. Run rejects a scenario carrying a sweep axis.
	Sweep Sweep
}

// TotalHosts sums the host classes.
func (sc Scenario) TotalHosts() int {
	n := 0
	for _, hc := range sc.Hosts {
		n += hc.Count
	}
	return n
}

// TotalVMs sums the workload groups (including churn members that only
// exist for part of the horizon).
func (sc Scenario) TotalVMs() int {
	n := 0
	for _, g := range sc.Groups {
		n += g.Count
	}
	return n
}

// policies returns the effective policy columns.
func (sc Scenario) policies() []PolicyConfig {
	if len(sc.Policies) > 0 {
		return sc.Policies
	}
	return DefaultPolicies()
}

// Validate checks that the scenario is well-formed and that the fleet
// can plausibly hold the population (initial placement panics deep in
// the runtime otherwise, so the check front-loads the error).
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if sc.HorizonHours <= 0 {
		return fmt.Errorf("scenario %s: non-positive horizon", sc.Name)
	}
	if sc.Start < 0 {
		return fmt.Errorf("scenario %s: negative start hour", sc.Name)
	}
	hosts := sc.TotalHosts()
	if len(sc.Hosts) == 0 || hosts == 0 {
		return fmt.Errorf("scenario %s: no hosts", sc.Name)
	}
	if len(sc.Groups) == 0 || sc.TotalVMs() == 0 {
		return fmt.Errorf("scenario %s: no VMs", sc.Name)
	}
	memCap, slotCap, unbounded := 0, 0, false
	classNames := make(map[string]bool, len(sc.Hosts))
	for _, hc := range sc.Hosts {
		if hc.Count <= 0 || hc.MemGB <= 0 || hc.VCPUs <= 0 || hc.Slots < 0 {
			return fmt.Errorf("scenario %s: host class %q has invalid shape", sc.Name, hc.Name)
		}
		classNames[hc.Name] = true
		if hc.Profile != (power.Profile{}) {
			if err := hc.Profile.Validate(); err != nil {
				return fmt.Errorf("scenario %s: host class %q: %v", sc.Name, hc.Name, err)
			}
		}
		memCap += hc.Count * hc.MemGB
		if hc.Slots == 0 {
			unbounded = true
		}
		slotCap += hc.Count * hc.Slots
	}
	memDemand, vmCount := 0, 0
	for _, g := range sc.Groups {
		if g.Count <= 0 || g.MemGB <= 0 || g.VCPUs <= 0 {
			return fmt.Errorf("scenario %s: group %q has invalid shape", sc.Name, g.Name)
		}
		if g.Gen.Fn == nil {
			return fmt.Errorf("scenario %s: group %q has no generator", sc.Name, g.Name)
		}
		if g.ArriveEvery < 0 || g.LifetimeHours < 0 {
			return fmt.Errorf("scenario %s: group %q has negative churn parameters", sc.Name, g.Name)
		}
		if g.StartHost < 0 || g.StartHost > hosts {
			return fmt.Errorf("scenario %s: group %q pinned to host %d of %d",
				sc.Name, g.Name, g.StartHost, hosts)
		}
		peak := peakMembers(g)
		memDemand += peak * g.MemGB
		vmCount += peak
	}
	if memDemand > memCap {
		return fmt.Errorf("scenario %s: %d GB of VM memory exceeds %d GB of fleet memory",
			sc.Name, memDemand, memCap)
	}
	if !unbounded && vmCount > slotCap {
		return fmt.Errorf("scenario %s: %d VMs exceed %d fleet slots", sc.Name, vmCount, slotCap)
	}
	for _, pc := range sc.policies() {
		if pc.Label == "" || pc.Policy == "" {
			return fmt.Errorf("scenario %s: policy column missing label or policy", sc.Name)
		}
		if policies[pc.Policy] == nil {
			return fmt.Errorf("scenario %s: column %q names unknown policy %q",
				sc.Name, pc.Label, pc.Policy)
		}
	}
	if sc.Resolution != dcsim.ResolutionHourly && sc.Resolution != dcsim.ResolutionEvent {
		return fmt.Errorf("scenario %s: unknown resolution %d", sc.Name, int(sc.Resolution))
	}
	if err := sc.Network.validate(sc.Name, classNames); err != nil {
		return err
	}
	// Sweep-grid range checks run before any tuning consistency check:
	// a malformed grid value (non-finite, negative, out of range) must
	// surface as a grid error naming the offending index, not as a
	// downstream pair-consistency complaint about a value the grid
	// never legitimately carried.
	if err := sc.validateSweep(); err != nil {
		return err
	}
	t := sc.Tuning
	for _, l := range []float64{t.MaxGraceSeconds, t.SuspendLatencySeconds,
		t.ResumeLatencySeconds, t.NaiveResumeLatencySeconds} {
		if l < 0 {
			return fmt.Errorf("scenario %s: negative tuning override", sc.Name)
		}
	}
	if t.JitterSet && (t.JitterAmount < 0 || t.JitterAmount >= 1) {
		return fmt.Errorf("scenario %s: jitter amount %v outside [0, 1)", sc.Name, t.JitterAmount)
	}
	fleet := []power.Profile{power.DefaultProfile()}
	for _, hc := range sc.Hosts {
		if hc.Profile != (power.Profile{}) {
			fleet = append(fleet, hc.Profile)
		}
	}
	if err := t.checkLatencyOverrides(fleet); err != nil {
		return fmt.Errorf("scenario %s: %v", sc.Name, err)
	}
	return nil
}

// peakMembers bounds how many of a group's members can coexist. A
// churn group with both an arrival cadence and a lifetime never holds
// more than LifetimeHours/ArriveEvery + 1 live members at once (member
// i occupies [i·A, i·A+L)), so capacity checks use that bound instead
// of the full declared population — a year of 12-hourly 48-hour tasks
// needs 5 slots, not 730.
func peakMembers(g WorkloadGroup) int {
	if g.ArriveEvery > 0 && g.LifetimeHours > 0 {
		if n := g.LifetimeHours/g.ArriveEvery + 1; n < g.Count {
			return n
		}
	}
	return g.Count
}

// SimulatedVMs counts the members that actually materialize within the
// horizon: churn members scheduled to arrive after the run ends never
// exist. This is the population a Report reflects; TotalVMs is the
// declared catalog size.
func (sc Scenario) SimulatedVMs() int {
	n := 0
	for _, g := range sc.Groups {
		for i := 0; i < g.Count; i++ {
			at := 0
			if g.ArriveEvery > 0 {
				at = i * g.ArriveEvery
			}
			if at < sc.HorizonHours {
				n++
			}
		}
	}
	return n
}

// runStores bundles the memos shared across every policy cell of a
// call (Run or RunSweep): one base activity source per workload group
// and, at sub-hourly resolution, one timeline memo per replicated group
// and one per non-replicated member. The sources and group timelines
// are a pure function of the workload structure, so a StoreCache may
// keep them across calls; the member table is built per call
// (Options.stores) and dies with it. The zero value is the test
// reference: every VM memoizes its own member generator and
// timelines, with no overlay.
type runStores struct {
	sources   map[int]trace.Source
	timelines map[int]*trace.Memo[timeline.Hour]
	members   map[memberKey]*trace.Memo[timeline.Hour]
}

// memberKey identifies a non-replicated member's timeline memo: its
// group and member index, and the bits of the jitter amount its
// overlay applies, which a jitter sweep changes per point.
type memberKey struct {
	group, member int
	jitter        uint64
}

// sharedStores builds one activity source per workload group, keyed by
// group index. The sources are shared across every policy cell of a
// call — that is the point: all VMs of the group, in all cells, read
// one memo. Replicated members read the group's source as is;
// non-replicated members overlay their phase shift and jitter on it
// (trace.Source.Variant), so member state is O(1) instead of a full
// private memo per VM per cell. At event resolution each replicated
// group also gets a shared timeline memo, seeded like its members, so
// sharing stays invisible in the results.
func (sc Scenario) sharedStores() runStores {
	st := runStores{sources: make(map[int]trace.Source)}
	if sc.Resolution == dcsim.ResolutionEvent {
		st.timelines = make(map[int]*trace.Memo[timeline.Hour])
	}
	for gi, g := range sc.Groups {
		st.sources[gi] = trace.NewSource(g.Gen)
		if g.Replicated && st.timelines != nil {
			st.timelines[gi] = trace.NewTimelines(memberTimelineSeed(gi, g, 0), st.sources[gi])
		}
	}
	return st
}

// memberTimelines builds a call's member table over st's group
// sources: one timeline memo per non-replicated member of every
// event-resolution point, expanding the member's own overlay with its
// own seed, exactly as materialize wires it. Points that apply the
// same jitter amount share one memo per member; hourly points read no
// bursts and get none.
func (st runStores) memberTimelines(points []Scenario) map[memberKey]*trace.Memo[timeline.Hour] {
	var table map[memberKey]*trace.Memo[timeline.Hour]
	for _, sc := range points {
		if sc.Resolution != dcsim.ResolutionEvent {
			continue
		}
		if table == nil {
			table = make(map[memberKey]*trace.Memo[timeline.Hour])
		}
		for gi, g := range sc.Groups {
			if g.Replicated {
				continue
			}
			for i := 0; i < g.Count; i++ {
				k := sc.memberKey(gi, i)
				if _, ok := table[k]; !ok {
					table[k] = trace.NewTimelines(memberTimelineSeed(gi, g, i), sc.memberSource(st.sources[gi], g, i))
				}
			}
		}
	}
	return table
}

// memberKey returns the member table's key of group gi's member i.
func (sc Scenario) memberKey(gi, i int) memberKey {
	return memberKey{gi, i, math.Float64bits(sc.jitterAmount())}
}

// memberTimelineSeed derives member i's within-hour burst seed from
// structural coordinates only (group index, group seed, member index),
// never from pointers or execution order — the property that makes
// shared and private timeline stores replay bit-identical bursts.
// Replicated members share one seed: identical replicas burst in
// lockstep, which is both the realistic shape (one load balancer fans
// the same request stream out) and what lets a single shared store
// serve the whole population.
func memberTimelineSeed(gi int, g WorkloadGroup, i int) uint64 {
	if g.Replicated {
		i = 0
	}
	return timeline.MixSeed(uint64(gi), g.Seed, uint64(i))
}

// memberShift is member i's phase shift in hours, wrapped within the
// week. Shared by memberGen and the overlay wiring so the two
// derivations cannot drift apart.
func memberShift(g WorkloadGroup, i int) int {
	if g.ShiftStepHours == 0 {
		return 0
	}
	return (i * g.ShiftStepHours) % (simtime.DaysPerWeek * simtime.HoursPerDay)
}

// jitterAmount is the variant jitter amplitude in effect: the sweep
// override when set, the package default otherwise.
func (sc Scenario) jitterAmount() float64 {
	if sc.Tuning.JitterSet {
		return sc.Tuning.JitterAmount
	}
	return trace.VariantJitterAmount
}

// memberSource reads non-replicated member i's levels through an
// overlay of its group's base source. The derivation must be exactly
// memberGen's: same seed, shift and jitter over the same base, which
// is what makes it bit-identical to a private memo.
func (sc Scenario) memberSource(base trace.Source, g WorkloadGroup, i int) trace.Source {
	return base.Variant(g.Seed+uint64(i), memberShift(g, i), sc.jitterAmount())
}

// memberGen derives member i's generator from its group. Replicated
// members replay the archetype exactly; others get a phase-shifted,
// re-jittered variant whose jitter amplitude the scenario's Tuning may
// override (the "jitter" sweep parameter).
func (sc Scenario) memberGen(g WorkloadGroup, i int) trace.Generator {
	if g.Replicated {
		return g.Gen
	}
	return trace.VariantJitter(g.Gen, g.Seed+uint64(i), memberShift(g, i), sc.jitterAmount())
}

// materialize builds one policy cell's cluster, its churn schedule and
// the per-host power-profile overrides. Each cell owns a disjoint
// cluster (cells run concurrently); the memos in st are the only state
// deliberately common to all cells: group sources, replicated groups'
// timelines, and each non-replicated member's timelines from the
// call's member table.
func (sc Scenario) materialize(st runStores) (
	*cluster.Cluster, []dcsim.Arrival, []dcsim.Departure, map[int]power.Profile) {
	c := cluster.New()
	hostID := 0
	profiles := make(map[int]power.Profile)
	domains := sc.Network.classDomains()
	for _, hc := range sc.Hosts {
		for i := 0; i < hc.Count; i++ {
			h := cluster.NewHost(hostID, fmt.Sprintf("%s-%03d", hc.Name, i),
				hc.MemGB, hc.VCPUs, hc.Slots)
			if domains != nil {
				if d, ok := domains[hc.Name]; ok {
					h.Subnet = d
				} else {
					h.Subnet = sc.Network.defaultDomain()
				}
			}
			c.AddHost(h)
			if hc.Profile != (power.Profile{}) {
				profiles[hostID] = hc.Profile
			}
			hostID++
		}
	}
	var arrivals []dcsim.Arrival
	var departures []dcsim.Departure
	vmID := 0
	for gi, g := range sc.Groups {
		for i := 0; i < g.Count; i++ {
			at := sc.Start
			if g.ArriveEvery > 0 {
				at += simtime.Hour(i * g.ArriveEvery)
			}
			if int(at-sc.Start) >= sc.HorizonHours {
				continue // would arrive after the run ends
			}
			gen := sc.memberGen(g, i)
			v := cluster.NewVM(vmID, fmt.Sprintf("%s-%03d", g.Name, i),
				g.Kind, g.MemGB, g.VCPUs, gen)
			v.TimerDriven = g.TimerDriven
			src, ok := st.sources[gi]
			tl := st.timelines[gi]
			if !ok {
				src = trace.NewSource(gen)
			} else if !g.Replicated {
				src = sc.memberSource(src, g, i)
				tl = st.members[sc.memberKey(gi, i)]
			}
			// The timeline seed is set unconditionally (it is inert at
			// hourly resolution) so the same scenario produces the same
			// bursts whether or not stores are shared.
			v.Wire(src, tl, memberTimelineSeed(gi, g, i))
			vmID++
			if at > sc.Start {
				arrivals = append(arrivals, dcsim.Arrival{At: at, VM: v})
			} else {
				c.AddVM(v)
				if g.StartHost > 0 {
					if err := c.Place(v, c.Hosts()[g.StartHost-1]); err != nil {
						panic(err)
					}
				}
			}
			if g.LifetimeHours > 0 {
				departures = append(departures, dcsim.Departure{
					At: at + simtime.Hour(g.LifetimeHours), VM: v})
			}
		}
	}
	return c, arrivals, departures, profiles
}
