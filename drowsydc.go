// Package drowsydc is the public facade of the Drowsy-DC reproduction:
// a datacenter power-management system that colocates long-lived
// mostly-idle (LLMI) VMs with matching idleness patterns so whole
// servers can be suspended to RAM during shared idle periods
// (Bacou et al., "Drowsy-DC: Data Center Power Management System",
// IEEE IPDPS 2019).
//
// The facade exposes three layers:
//
//   - the idleness model: NewIdlenessModel / IdlenessModel, the per-VM
//     learner from which idleness probabilities are derived;
//   - scenario building: Scenario, VM, AddHosts/AddVM, the simulated
//     datacenter substrate;
//   - execution: Scenario.Run with a Policy, returning a Report with
//     energy, suspension, colocation, migration and latency results.
//
// Internal packages expose the full machinery (consolidation policies,
// suspending/waking modules, the discrete-event engine) for advanced
// use; the facade covers the common experiment shapes.
package drowsydc

import (
	"fmt"
	"io"

	"drowsydc/internal/cluster"
	"drowsydc/internal/core"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/exp"
	"drowsydc/internal/scenario"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// IdlenessModel is the paper's per-VM idleness model (§III): SI scores
// at four calendar scales plus learned weights. See internal/core for
// the full API.
type IdlenessModel = core.Model

// NewIdlenessModel returns a fresh idleness model with the paper's
// empirical constants (α = 0.7, β = 0.5, σ = 1/8760).
func NewIdlenessModel() *IdlenessModel { return core.New() }

// Hour is an absolute simulation hour (hour 0 = 00:00 Monday January 1
// of year 0 in the proleptic non-leap calendar).
type Hour = simtime.Hour

// Date builds an absolute hour from 0-based calendar coordinates.
func Date(year, month, dayOfMonth, hourOfDay int) Hour {
	return simtime.Date(year, month, dayOfMonth, hourOfDay)
}

// Policy selects the consolidation algorithm of a run.
type Policy string

// Available policies.
const (
	// PolicyDrowsy is Drowsy-DC in production mode: Neat's detection
	// stages with IP-aware selection/placement plus the opportunistic
	// IP-range pass.
	PolicyDrowsy Policy = "drowsy"
	// PolicyDrowsyFull is the paper's evaluation mode: every
	// consolidation round reconsiders all placements.
	PolicyDrowsyFull Policy = "drowsy-full"
	// PolicyNeat is the OpenStack Neat baseline.
	PolicyNeat Policy = "neat"
	// PolicyOasis is the Oasis-like pairwise comparator.
	PolicyOasis Policy = "oasis"
)

// Workload names a built-in activity trace family for VM construction.
type Workload struct {
	gen trace.Generator
}

// Built-in workloads (see internal/trace for the full combinator set).
func WorkloadDailyBackup(level float64) Workload { return Workload{trace.DailyBackup(level)} }
func WorkloadComicStrips(level float64) Workload { return Workload{trace.ComicStrips(level)} }
func WorkloadProduction(i int) Workload          { return Workload{trace.RealTrace(i)} }
func WorkloadLLMU(seed uint64) Workload          { return Workload{trace.LLMU(seed)} }
func WorkloadSeasonal() Workload                 { return Workload{trace.SeasonalResults()} }

// CustomWorkload wraps a generator built from the combinators of
// internal/trace, for workload shapes the built-ins do not cover.
func CustomWorkload(g trace.Generator) Workload { return Workload{g} }

// VM describes one virtual machine of a scenario.
type VM struct {
	Name     string
	MemGB    int
	VCPUs    int
	Workload Workload
	// MostlyUsed marks LLMU VMs (reporting only; behaviour comes from
	// the workload).
	MostlyUsed bool
	// TimerDriven marks VMs whose activity is timer-initiated (backup
	// jobs): their hosts are woken ahead of schedule instead of paying
	// the request wake latency.
	TimerDriven bool
	// InitialHost pins the first placement; -1 lets the policy choose.
	InitialHost int
}

// Scenario is a datacenter under construction.
type Scenario struct {
	hosts     int
	hostMemGB int
	hostVCPUs int
	slots     int
	vms       []VM

	// Days is the simulated duration.
	Days int
	// Suspend enables S3 on non-empty idle hosts (Drowsy-DC's point;
	// disable to reproduce the vanilla-Neat baseline).
	Suspend bool
	// Grace enables the anti-oscillation grace time.
	Grace bool
	// NaiveResume charges the unoptimized (~1500 ms) resume latency.
	NaiveResume bool
	// RebalanceEveryHours is the consolidation period (default 1).
	RebalanceEveryHours int
	// Start is the calendar hour the run begins at.
	Start Hour
}

// NewScenario creates a scenario with nHosts identical hosts.
func NewScenario(nHosts, hostMemGB, hostVCPUs, slotsPerHost int) *Scenario {
	return &Scenario{
		hosts:     nHosts,
		hostMemGB: hostMemGB,
		hostVCPUs: hostVCPUs,
		slots:     slotsPerHost,
		Days:      7,
		Suspend:   true,
		Grace:     true,
	}
}

// AddVM appends a VM to the scenario.
func (s *Scenario) AddVM(v VM) *Scenario {
	s.vms = append(s.vms, v)
	return s
}

// Testbed returns the paper's §VI-A scenario: 4 pool hosts × 2 slots,
// 8 VMs (2 LLMU + 6 LLMI, V3/V4 sharing a workload).
func Testbed() *Scenario {
	s := NewScenario(4, 16, 4, 2)
	for _, g := range exp.TestbedGroups() {
		s.AddVM(VM{
			Name:        g.Name,
			MemGB:       g.MemGB,
			VCPUs:       g.VCPUs,
			Workload:    Workload{g.Gen},
			MostlyUsed:  g.Kind == cluster.KindLLMU,
			TimerDriven: g.TimerDriven,
			InitialHost: g.StartHost - 1,
		})
	}
	return s
}

// Report is the outcome of a run.
type Report struct {
	Policy string
	Days   int

	// EnergyKWh is the total energy of all hosts.
	EnergyKWh float64
	// SuspendedFraction is the average fraction of time hosts spent in
	// S3 (Table I's "Global" column).
	SuspendedFraction float64
	// PerHostSuspended are the per-host fractions.
	PerHostSuspended []float64
	// Migrations is the total number of live migrations.
	Migrations int
	// SLAFraction is the share of requests within the 200 ms target.
	SLAFraction float64
	// WorstWakeLatencySeconds is the slowest wake-triggered request.
	WorstWakeLatencySeconds float64
	// ColocationFraction returns the share of hours VMs i and j (by
	// AddVM order) shared a host.
	ColocationFraction func(i, j int) float64
}

// Run executes the scenario under the given policy: the fleet is
// declared as a one-column scenario.Scenario, one single-VM group per
// VM, and run through scenario.Simulate with a colocation probe.
func (s *Scenario) Run(p Policy) (*Report, error) {
	sc := scenario.Scenario{
		Name:           "drowsydc",
		Start:          s.Start,
		HorizonHours:   s.Days * 24,
		Hosts:          []scenario.HostClass{{Name: "P", Count: s.hosts, MemGB: s.hostMemGB, VCPUs: s.hostVCPUs, Slots: s.slots}},
		RebalanceEvery: s.RebalanceEveryHours,
		Policies: []scenario.PolicyConfig{{Label: string(p), Policy: string(p),
			Suspend: s.Suspend, Grace: s.Grace, NaiveResume: s.NaiveResume}},
	}
	for _, v := range s.vms {
		kind := cluster.KindLLMI
		if v.MostlyUsed {
			kind = cluster.KindLLMU
		}
		if v.InitialHost >= s.hosts || v.InitialHost < -1 {
			return nil, fmt.Errorf("drowsydc: VM %q pinned to host %d of %d", v.Name, v.InitialHost, s.hosts)
		}
		sc.Groups = append(sc.Groups, scenario.WorkloadGroup{Name: v.Name, Count: 1, Kind: kind,
			MemGB: v.MemGB, VCPUs: v.VCPUs, Gen: v.Workload.gen, Replicated: true,
			TimerDriven: v.TimerDriven, StartHost: v.InitialHost + 1})
	}
	coloc := exp.NewColocationProbe(len(s.vms))
	results, err := scenario.Simulate(sc, scenario.Options{
		Probe: func(int, string) dcsim.Probe { return coloc },
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	return &Report{
		Policy:                  res.Policy,
		Days:                    s.Days,
		EnergyKWh:               res.EnergyKWh,
		SuspendedFraction:       res.GlobalSuspFrac,
		PerHostSuspended:        res.SuspendedFrac,
		Migrations:              res.Migrations,
		SLAFraction:             res.Latency.SLAFraction(),
		WorstWakeLatencySeconds: res.WakeLatency.Max(),
		ColocationFraction:      coloc.Fraction,
	}, nil
}

// Summary writes a human-readable digest of the report.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "policy=%s days=%d energy=%.2f kWh suspended=%.0f%% migrations=%d sla=%.2f%%\n",
		r.Policy, r.Days, r.EnergyKWh, 100*r.SuspendedFraction, r.Migrations, 100*r.SLAFraction)
}
