package exp

import (
	"io"
	"time"

	"drowsydc/internal/core"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/metrics"
	"drowsydc/internal/ossim"
	"drowsydc/internal/par"
	"drowsydc/internal/scenario"
	"drowsydc/internal/simtime"
	"drowsydc/internal/suspend"
	"drowsydc/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 1 — examples of real workloads

// Figure1Result holds six days of hourly activity for the example
// traces of the paper's Figure 1.
type Figure1Result struct {
	Names  []string
	Levels [][]float64 // per trace, hourly activity in [0,1]
}

// RunFigure1 generates the Figure 1 series.
func RunFigure1(days int) *Figure1Result {
	gens := trace.Figure1()
	res := &Figure1Result{}
	for _, g := range gens {
		tr := trace.Generate(g, 0, days*24)
		res.Names = append(res.Names, g.Name)
		res.Levels = append(res.Levels, tr.Levels)
	}
	return res
}

// Render prints the series as a day-by-day activity table (percent).
func (r *Figure1Result) Render(w io.Writer) {
	writef(w, "Figure 1: examples of real workloads (activity %%, hourly)\n")
	for i, name := range r.Names {
		writef(w, "\n%s:\n", name)
		levels := r.Levels[i]
		for d := 0; d*24 < len(levels); d++ {
			writef(w, "  day %d:", d+1)
			for h := 0; h < 24 && d*24+h < len(levels); h++ {
				writef(w, " %4.1f", 100*levels[d*24+h])
			}
			writef(w, "\n")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 2 + Table I + energy — the real-environment experiment

// TestbedResult bundles the three policy configurations the paper
// compares on the testbed: Drowsy-DC (suspension + grace), Neat with
// suspension enabled (same suspension algorithm, no grace), and vanilla
// Neat (suspension disabled, the "current real world case").
type TestbedResult struct {
	Days        int
	VMNames     []string
	HostNames   []string
	Drowsy      *dcsim.Result
	NeatS3      *dcsim.Result
	NeatVanilla *dcsim.Result
	// Coloc is the Drowsy-DC run's colocation matrix (Figure 2).
	Coloc *metrics.Colocation
}

// ColocationProbe records Figure 2's colocation matrix from a run's
// hourly placements (it is a dcsim.PlacementProbe) and ignores the hour
// samples.
type ColocationProbe struct{ *metrics.Colocation }

// NewColocationProbe returns a probe for a run of n VMs.
func NewColocationProbe(n int) ColocationProbe {
	return ColocationProbe{metrics.NewColocation(n)}
}

// ObserveHour implements dcsim.Probe.
func (ColocationProbe) ObserveHour(dcsim.HourSample) {}

// ObservePlacement implements dcsim.PlacementProbe.
func (p ColocationProbe) ObservePlacement(hosts []int) { p.RecordHour(hosts) }

// RunTestbed runs all three configurations of the §VI-A experiment,
// concurrently (each on its own cluster). Use RunTestbedWorkers(days,
// 1) for a serial run (identical results; only scheduling differs).
func RunTestbed(days int) *TestbedResult { return RunTestbedWorkers(days, 0) }

// RunTestbedWorkers is RunTestbed with an explicit worker bound
// (0 = GOMAXPROCS, 1 = serial).
func RunTestbedWorkers(days, workers int) *TestbedResult {
	res := &TestbedResult{Days: days, HostNames: []string{"P2", "P3", "P4", "P5"}}
	groups := TestbedGroups()
	for _, g := range groups {
		res.VMNames = append(res.VMNames, g.Name)
	}
	coloc := NewColocationProbe(len(groups))
	// The first three default columns are the testbed's: drowsy-full
	// with suspension and grace, Neat with suspension, vanilla Neat.
	runs := simulate(testbed(days, dcsim.ResolutionHourly, scenario.DefaultPolicies()[:3]...), scenario.Options{
		Workers: workers,
		Probe: func(cell int, _ string) dcsim.Probe {
			if cell == 0 {
				return coloc
			}
			return nil
		},
	})
	res.Drowsy, res.NeatS3, res.NeatVanilla, res.Coloc = runs[0], runs[1], runs[2], coloc.Colocation
	return res
}

// RenderFigure2 prints the colocation matrix and migration counts.
func (r *TestbedResult) RenderFigure2(w io.Writer) {
	writef(w, "Figure 2: colocation percentage of each VM (Drowsy-DC, %d days)\n     ", r.Days)
	for _, n := range r.VMNames {
		writef(w, "%5s", n)
	}
	writef(w, "  #mig\n")
	for i, n := range r.VMNames {
		writef(w, "%5s", n)
		for j := range r.VMNames {
			writef(w, "%5.0f", 100*r.Coloc.Fraction(i, j))
		}
		writef(w, "  %4d\n", r.Drowsy.PerVMMigrations[i])
	}
}

// RenderTable1 prints the suspended-time fractions.
func (r *TestbedResult) RenderTable1(w io.Writer) {
	writef(w, "Table I: fraction of time (percent) spent suspended\n")
	writef(w, "%-10s", "Algorithm")
	for _, h := range r.HostNames {
		writef(w, "%6s", h)
	}
	writef(w, "%8s\n", "Global")
	row := func(name string, res *dcsim.Result) {
		writef(w, "%-10s", name)
		for _, f := range res.SuspendedFrac {
			writef(w, "%6.0f", 100*f)
		}
		writef(w, "%8.0f\n", 100*res.GlobalSuspFrac)
	}
	row("Drowsy-DC", r.Drowsy)
	row("Neat", r.NeatS3)
}

// RenderEnergy prints the energy and latency summary of §VI-A-3.
func (r *TestbedResult) RenderEnergy(w io.Writer) {
	writef(w, "Energy over %d days (paper: 18 kWh Drowsy, 24 kWh Neat+S3, 40 kWh Neat):\n", r.Days)
	writef(w, "  Drowsy-DC            %6.2f kWh\n", r.Drowsy.EnergyKWh)
	writef(w, "  Neat + suspension    %6.2f kWh\n", r.NeatS3.EnergyKWh)
	writef(w, "  Neat (no suspension) %6.2f kWh\n", r.NeatVanilla.EnergyKWh)
	writef(w, "  saving vs Neat       %6.1f %%\n",
		100*(1-r.Drowsy.EnergyKWh/r.NeatVanilla.EnergyKWh))
	writef(w, "  saving vs Neat+S3    %6.1f %%\n",
		100*(1-r.Drowsy.EnergyKWh/r.NeatS3.EnergyKWh))
	writef(w, "SLA (target 200 ms): %.2f%% of %d requests within target\n",
		100*r.Drowsy.Latency.SLAFraction(), r.Drowsy.Latency.Count())
	writef(w, "Wake-triggered requests: %d, worst %4.0f ms (resume-latency bound)\n",
		r.Drowsy.WakeLatency.Count(), 1000*r.Drowsy.WakeLatency.Max())
}

// ---------------------------------------------------------------------------
// Figure 4 — idleness model efficiency over three years

// Figure4Trace is the metric series of one Table II trace.
type Figure4Trace struct {
	Name   string
	Points []metrics.Point
	Final  metrics.Confusion
}

// RunFigure4 trains an idleness model on each Table II trace for the
// given number of years and evaluates the four Table III metrics
// weekly: each hour the model first predicts (IP for the coming hour),
// then observes the truth.
func RunFigure4(years int) []Figure4Trace { return RunFigure4Workers(years, 0) }

// RunFigure4Workers is RunFigure4 with an explicit worker bound
// (0 = GOMAXPROCS, 1 = serial).
func RunFigure4Workers(years, workers int) []Figure4Trace {
	gens := trace.TableII()
	return par.Map(workers, len(gens), func(i int) Figure4Trace {
		g := gens[i]
		m := core.New()
		win := metrics.NewWindowed(7 * 24)
		hours := simtime.Hour(years * simtime.HoursPerYear)
		for h := simtime.Hour(0); h < hours; h++ {
			st := simtime.Decompose(h)
			a := g.Activity(h)
			predIdle := m.PredictIdle(st)
			actIdle := a < core.DefaultNoiseFloor
			win.Add(int64(h), predIdle, actIdle)
			m.Observe(st, a)
		}
		return Figure4Trace{Name: g.Name, Points: win.Points(), Final: win.Final()}
	})
}

// RenderFigure4 prints a quarterly summary of each trace's metrics.
func RenderFigure4(w io.Writer, traces []Figure4Trace) {
	writef(w, "Figure 4: idleness model efficiency (weekly cumulative metrics)\n")
	for _, tr := range traces {
		writef(w, "\n%s: final %s\n", tr.Name, tr.Final.String())
		writef(w, "  %10s %8s %10s %10s %12s\n", "week", "recall", "precision", "f-measure", "specificity")
		for i, p := range tr.Points {
			// Quarterly samples to keep the table readable.
			if (i+1)%13 != 0 {
				continue
			}
			writef(w, "  %10d %8.3f %10.3f %10.3f %12.3f\n", i+1, p.Recall, p.Precision, p.FMeasure, p.Spec)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3 (reconstructed) — suspending module specifics

// Figure3Result is the suspending-module evaluation of §VI-A-4:
// effectiveness (idle detection, oscillation prevention, waking-date
// computation), overhead, and scalability.
type Figure3Result struct {
	// Idle detection on a process population with known ground truth.
	DetectionCases   int
	DetectionCorrect int
	// Oscillation: suspend decisions of a flapping host with and
	// without grace over one simulated hour of 1-second probes.
	SuspendsWithGrace    int
	SuspendsWithoutGrace int
	// Waking-date correctness: scheduled vs expected.
	WakeDatesTotal   int
	WakeDatesCorrect int
	// Scalability: decision latency vs process/timer count.
	ScaleProcs   []int
	ScaleLatency []time.Duration // mean Check latency at each size
}

// RunFigure3 executes the suspending-module microexperiments.
func RunFigure3() *Figure3Result {
	res := &Figure3Result{}

	// (1) Idle detection over mixed process populations.
	for scenario := 0; scenario < 64; scenario++ {
		os := ossim.New()
		os.Blacklist("monitord", "watchdog")
		os.Spawn("monitord", ossim.StateRunning) // must be ignored
		busy := false
		for p := 0; p < 8; p++ {
			st := ossim.StateSleeping
			switch {
			case scenario&(1<<p) != 0 && p%3 == 0:
				st = ossim.StateRunning
				busy = true
			case scenario&(1<<p) != 0 && p%3 == 1:
				st = ossim.StateBlockedIO
				busy = true
			}
			os.Spawn("svc", st)
		}
		res.DetectionCases++
		if os.Idle() == !busy {
			res.DetectionCorrect++
		}
	}

	// (2) Oscillation prevention: 1-second activity flaps for an hour.
	osFlap := ossim.New()
	pid := osFlap.Spawn("svc", ossim.StateSleeping)
	run := func(useGrace bool) int {
		mon := suspend.NewMonitor(suspend.Config{UseGrace: useGrace}, osFlap)
		mon.OnResume(0, 0.3)
		count := 0
		for s := simtime.Time(1); s <= 3600; s++ {
			if s%7 == 0 { // brief activity burst
				osFlap.SetState(pid, ossim.StateRunning)
			} else {
				osFlap.SetState(pid, ossim.StateSleeping)
			}
			if d := mon.Check(s); d.Suspend {
				count++
				mon.OnSuspend()
				mon.OnResume(s, 0.3) // woken again immediately
			}
		}
		return count
	}
	res.SuspendsWithoutGrace = run(false)
	res.SuspendsWithGrace = run(true)

	// (3) Waking-date computation over randomized timer sets.
	for i := 0; i < 100; i++ {
		os := ossim.New()
		os.Blacklist("watchdog")
		wd := os.Spawn("watchdog", ossim.StateSleeping)
		os.RegisterTimer(wd, simtime.Time(10+i)) // decoy, filtered
		want := simtime.Time(1000 + 13*i)
		svc := os.Spawn("svc", ossim.StateSleeping)
		os.RegisterTimer(svc, want+50)
		os.RegisterTimer(svc, want)
		mon := suspend.NewMonitor(suspend.Config{}, os)
		mon.OnResume(0, 1)
		d := mon.Check(simtime.Time(suspend.MinGrace) + 1)
		res.WakeDatesTotal++
		if d.Suspend && d.HasWake && d.WakeAt == want {
			res.WakeDatesCorrect++
		}
	}

	// (4) Scalability of the decision path.
	for _, n := range []int{10, 100, 1000, 10000} {
		os := ossim.New()
		os.Blacklist("monitord")
		for p := 0; p < n; p++ {
			pid := os.Spawn("svc", ossim.StateSleeping)
			os.RegisterTimer(pid, simtime.Time(100000+p))
		}
		mon := suspend.NewMonitor(suspend.Config{}, os)
		mon.OnResume(0, 1)
		const reps = 50
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			mon.Check(simtime.Time(suspend.MinGrace) + simtime.Time(rep) + 1)
		}
		res.ScaleProcs = append(res.ScaleProcs, n)
		res.ScaleLatency = append(res.ScaleLatency, time.Since(start)/reps)
	}
	return res
}

// Render prints the Figure 3 reconstruction.
func (r *Figure3Result) Render(w io.Writer) {
	writef(w, "Figure 3 (reconstructed): suspending module\n")
	writef(w, "  idle detection: %d/%d scenarios correct\n", r.DetectionCorrect, r.DetectionCases)
	writef(w, "  oscillation: %d suspends/hour without grace vs %d with grace\n",
		r.SuspendsWithoutGrace, r.SuspendsWithGrace)
	writef(w, "  waking dates: %d/%d computed exactly (blacklist filtered)\n",
		r.WakeDatesCorrect, r.WakeDatesTotal)
	writef(w, "  scalability (mean decision latency):\n")
	for i, n := range r.ScaleProcs {
		writef(w, "    %6d procs+timers: %v\n", n, r.ScaleLatency[i])
	}
}
