package exp

import (
	"fmt"
	"io"

	"drowsydc/internal/cluster"
	"drowsydc/internal/core"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/oasis"
	"drowsydc/internal/par"
	"drowsydc/internal/scenario"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// ---------------------------------------------------------------------------
// §VI-B (reconstructed) — simulation at datacenter scale

// SimConfig shapes the datacenter-scale sweep.
type SimConfig struct {
	Hosts     int
	Slots     int // VMs per host
	Days      int
	Fractions []float64 // LLMI fractions to sweep
	// RebalanceEvery trades fidelity for speed on the O(n²) baseline.
	RebalanceEvery int
	// Workers bounds the number of concurrently executed grid cells;
	// 0 selects runtime.GOMAXPROCS(0), 1 runs the sweep serially. Every
	// cell is an independent deterministic run, so the results are
	// identical at any worker count.
	Workers int
}

// DefaultSimConfig mirrors a small CloudSim-style datacenter: the sweep
// remains laptop-scale while large enough for placement structure to
// matter.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Hosts:          16,
		Slots:          4,
		Days:           21,
		Fractions:      []float64{0, 0.25, 0.5, 0.75, 1.0},
		RebalanceEvery: 6,
	}
}

// SimPoint is one row of the sweep.
type SimPoint struct {
	LLMIFraction float64
	DrowsyKWh    float64
	NeatS3KWh    float64
	NeatKWh      float64 // vanilla, no suspension
	OasisKWh     float64

	ImprovVsNeat   float64 // Drowsy saving vs vanilla Neat, percent
	ImprovVsNeatS3 float64
	ImprovVsOasis  float64
}

// population builds a mixed VM population, one single-VM group per VM
// for the policy to place: llmiFrac of the VMs are LLMI (drawn from the
// production-like trace classes with phase-shifted variants), the rest
// LLMU.
func population(n int, llmiFrac float64) []scenario.WorkloadGroup {
	groups := make([]scenario.WorkloadGroup, 0, n)
	nLLMI := int(llmiFrac*float64(n) + 0.5)
	for i := 0; i < n; i++ {
		var g trace.Generator
		kind := cluster.KindLLMU
		timer := false
		if i < nLLMI {
			kind = cluster.KindLLMI
			base := trace.RealTrace(1 + i%5)
			// Phase-shift within the day/week so idle periods of
			// different VMs genuinely differ.
			g = trace.Variant(base, uint64(1000+i), (i/5)%24)
			if i%7 == 6 {
				g = trace.DailyBackup(0.5)
				g.Name = fmt.Sprintf("backup-%d", i)
				timer = true
			}
		} else {
			g = trace.LLMU(uint64(9000 + i))
		}
		groups = append(groups, scenario.WorkloadGroup{
			Name:        fmt.Sprintf("vm%03d", i),
			Count:       1,
			Kind:        kind,
			MemGB:       4,
			VCPUs:       2,
			Gen:         g,
			Replicated:  true,
			TimerDriven: timer,
		})
	}
	return groups
}

// RunSimulation executes the LLMI-fraction sweep under the four
// configurations: one scenario per fraction, its four policy columns
// (drowsy, neat+S3, vanilla neat, oasis) independent deterministic
// runs. Fractions and columns both fan out over cfg.Workers.
func RunSimulation(cfg SimConfig) []SimPoint {
	nVMs := cfg.Hosts * cfg.Slots * 3 / 4 // 75% occupancy: consolidation has room
	cols := scenario.DefaultPolicies()
	cols[3].New = func() cluster.Policy { return oasis.New(oasis.Options{Window: 72}) }
	hosts := []scenario.HostClass{{Name: "P", Count: cfg.Hosts,
		MemGB: 4 * cfg.Slots, VCPUs: 2 * cfg.Slots, Slots: cfg.Slots}}
	results := par.Map(cfg.Workers, len(cfg.Fractions), func(fi int) []*dcsim.Result {
		return simulate(scenario.Scenario{
			Name:            "simulation",
			HorizonHours:    cfg.Days * 24,
			Hosts:           hosts,
			Groups:          population(nVMs, cfg.Fractions[fi]),
			RebalanceEvery:  cfg.RebalanceEvery,
			RequestsPerHour: 50,
			Policies:        cols,
		}, scenario.Options{Workers: cfg.Workers})
	})
	var out []SimPoint
	for fi, frac := range cfg.Fractions {
		cell := results[fi]
		p := SimPoint{
			LLMIFraction: frac,
			DrowsyKWh:    cell[0].EnergyKWh,
			NeatS3KWh:    cell[1].EnergyKWh,
			NeatKWh:      cell[2].EnergyKWh,
			OasisKWh:     cell[3].EnergyKWh,
		}
		p.ImprovVsNeat = 100 * (1 - p.DrowsyKWh/p.NeatKWh)
		p.ImprovVsNeatS3 = 100 * (1 - p.DrowsyKWh/p.NeatS3KWh)
		p.ImprovVsOasis = 100 * (1 - p.DrowsyKWh/p.OasisKWh)
		out = append(out, p)
	}
	return out
}

// RenderSimulation prints the sweep.
func RenderSimulation(w io.Writer, cfg SimConfig, pts []SimPoint) {
	writef(w, "Simulation (§VI-B reconstructed): %d hosts × %d slots, %d days\n",
		cfg.Hosts, cfg.Slots, cfg.Days)
	writef(w, "%-10s %10s %10s %10s %10s | %8s %8s %8s\n",
		"LLMI frac", "Drowsy", "Neat+S3", "Neat", "Oasis", "vsNeat", "vsNeatS3", "vsOasis")
	for _, p := range pts {
		writef(w, "%-10.2f %7.1fkWh %7.1fkWh %7.1fkWh %7.1fkWh | %7.1f%% %7.1f%% %7.1f%%\n",
			p.LLMIFraction, p.DrowsyKWh, p.NeatS3KWh, p.NeatKWh, p.OasisKWh,
			p.ImprovVsNeat, p.ImprovVsNeatS3, p.ImprovVsOasis)
	}
}

// ---------------------------------------------------------------------------
// §VII — consolidation complexity: Drowsy O(n) vs Oasis O(n²)

// ScalePoint compares per-round work at one VM count.
type ScalePoint struct {
	VMs        int
	DrowsyIPs  uint64 // IP evaluations per rebalance
	OasisPairs uint64 // pair evaluations per rebalance
}

// RunScaling measures one rebalance round at each population size. The
// two policies at each size are independent runs on disjoint clusters,
// so the whole (size × policy) grid executes on the worker pool. The
// reported evaluation counts are exact and scheduling-independent;
// wall-clock measurements that must not overlap cells should use
// RunScalingWorkers with workers = 1.
func RunScaling(sizes []int) []ScalePoint { return RunScalingWorkers(sizes, 0) }

// RunScalingWorkers is RunScaling with an explicit worker bound
// (0 = GOMAXPROCS, 1 = serial).
func RunScalingWorkers(sizes []int, workers int) []ScalePoint {
	evals := par.Map(workers, len(sizes)*2, func(i int) uint64 {
		n := sizes[i/2]
		c := ScalingCluster(n)
		if i%2 == 0 {
			trainHours(c, 24)
			dp := drowsy.New(drowsy.Options{FullRelocation: true})
			dp.Rebalance(c, 25)
			return dp.IPEvaluations()
		}
		op := oasis.New(oasis.Options{Window: 24})
		op.Rebalance(c, 25)
		return op.PairEvaluations()
	})
	var out []ScalePoint
	for i, n := range sizes {
		out = append(out, ScalePoint{VMs: n, DrowsyIPs: evals[2*i], OasisPairs: evals[2*i+1]})
	}
	return out
}

// ScalingCluster builds the §VII scaling population at n VMs — all
// LLMI variants, seeded round-robin onto (n+3)/4 hosts. The complexity
// measurements and the Oasis rebalance benchmarks share this shape;
// callers needing trained idleness models feed observations themselves
// (Oasis reads only activity, so its benchmarks skip that).
func ScalingCluster(n int) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < (n+3)/4; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprintf("P%d", i+2), 16, 8, 4))
	}
	hosts := c.Hosts()
	hi := 0
	for i, g := range population(n, 1.0) {
		v := cluster.NewVM(i, g.Name, g.Kind, g.MemGB, g.VCPUs, g.Gen)
		v.TimerDriven = g.TimerDriven
		c.AddVM(v)
		for !hosts[hi%len(hosts)].CanHost(v) {
			hi++
		}
		if err := c.Place(v, hosts[hi%len(hosts)]); err != nil {
			panic(err)
		}
		hi++
	}
	return c
}

// trainHours feeds every VM its first `hours` activity samples,
// bringing the idleness models to the trained state the consolidation
// measurements start from. Models never share state, so VM chunks
// train independently on the worker pool; within a chunk the walk is
// hour-major and each hour's observations batch into one
// core.ObserveColumn sweep (replicated VMs collapse their exponential
// updates into the column memo). Bit-identical to the plain
// per-VM/per-hour Observe loop at any worker count.
func trainHours(c *cluster.Cluster, hours int) { trainHoursWorkers(c, hours, 0) }

// trainHoursWorkers is trainHours with an explicit worker bound
// (0 = GOMAXPROCS, 1 = serial).
func trainHoursWorkers(c *cluster.Cluster, hours, workers int) {
	vms := c.VMs()
	const chunk = 64
	chunks := (len(vms) + chunk - 1) / chunk
	par.For(workers, chunks, func(ci int) {
		part := vms[ci*chunk : min((ci+1)*chunk, len(vms))]
		models := make([]*core.Model, len(part))
		acts := make([]float64, len(part))
		for i, v := range part {
			models[i] = v.Model
		}
		for h := simtime.Hour(0); h < simtime.Hour(hours); h++ {
			for i, v := range part {
				acts[i] = v.Activity(h)
			}
			core.ObserveColumn(simtime.Decompose(h), models, acts)
		}
	})
}

// RenderScaling prints the complexity comparison.
func RenderScaling(w io.Writer, pts []ScalePoint) {
	writef(w, "Consolidation complexity (§VII): per-round evaluations\n")
	writef(w, "%8s %15s %15s %10s\n", "VMs", "Drowsy IP-evals", "Oasis pair-evals", "ratio")
	for _, p := range pts {
		ratio := float64(p.OasisPairs) / float64(p.DrowsyIPs)
		writef(w, "%8d %15d %15d %9.1fx\n", p.VMs, p.DrowsyIPs, p.OasisPairs, ratio)
	}
}

// ---------------------------------------------------------------------------
// Table II — trace catalogue

// RenderTable2 prints the Table II trace types with measured idleness.
func RenderTable2(w io.Writer) {
	writef(w, "Table II: trace types for idleness model evaluation\n")
	writef(w, "%-18s %12s %14s  %s\n", "trace", "idle frac", "mean activity", "periodicity")
	descr := []string{
		"daily (backup at 02:00)",
		"three times a week, yearly (none in Jul/Aug)",
		"daily, weekly (production-like)",
		"daily, weekly (production-like)",
		"daily, weekly (production-like)",
		"daily, weekly (production-like)",
		"daily, monthly (production-like)",
		"none (long-lived mostly used)",
	}
	for i, g := range trace.TableII() {
		tr := trace.Generate(g, 0, simtime.HoursPerYear)
		writef(w, "%-18s %11.1f%% %13.3f  %s\n",
			g.Name, 100*tr.IdleFraction(0.01), tr.MeanActivity(), descr[i])
	}
}
