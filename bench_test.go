// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VI), plus ablations of Drowsy-DC's design choices and
// micro-benchmarks of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports the headline quantity of the
// corresponding artifact as a custom metric, so `go test -bench` output
// doubles as a results table.
package drowsydc

import (
	"fmt"
	"io"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/core"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/drowsy"
	"drowsydc/internal/exp"
	"drowsydc/internal/neat"
	"drowsydc/internal/oasis"
	"drowsydc/internal/scenario"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// ---------------------------------------------------------------------------
// Per-figure / per-table benches

// BenchmarkFigure1Traces regenerates the example-workload series.
func BenchmarkFigure1Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.RunFigure1(6)
		if len(r.Levels) != 2 {
			b.Fatal("bad figure 1")
		}
	}
}

// BenchmarkFigure2Colocation regenerates the colocation matrix.
func BenchmarkFigure2Colocation(b *testing.B) {
	var v34 float64
	for i := 0; i < b.N; i++ {
		rep, err := Testbed().Run(PolicyDrowsyFull)
		if err != nil {
			b.Fatal(err)
		}
		v34 = rep.ColocationFraction(2, 3)
	}
	b.ReportMetric(100*v34, "V3V4-coloc-%")
}

// BenchmarkTable1SuspendedTime regenerates Table I.
func BenchmarkTable1SuspendedTime(b *testing.B) {
	var drowsyFrac, neatFrac float64
	for i := 0; i < b.N; i++ {
		drowsyFrac = exp.RunTestbedPolicy("drowsy-full", 7, true, true).GlobalSuspFrac
		neatFrac = exp.RunTestbedPolicy("neat", 7, true, false).GlobalSuspFrac
	}
	b.ReportMetric(100*drowsyFrac, "drowsy-susp-%")
	b.ReportMetric(100*neatFrac, "neat-susp-%")
}

// BenchmarkEnergyTestbed regenerates the §VI-A-3 energy comparison.
func BenchmarkEnergyTestbed(b *testing.B) {
	var d, n3, nv float64
	for i := 0; i < b.N; i++ {
		d = exp.RunTestbedPolicy("drowsy-full", 7, true, true).EnergyKWh
		n3 = exp.RunTestbedPolicy("neat", 7, true, false).EnergyKWh
		nv = exp.RunTestbedPolicy("neat", 7, false, false).EnergyKWh
	}
	b.ReportMetric(d, "drowsy-kWh")
	b.ReportMetric(n3, "neatS3-kWh")
	b.ReportMetric(nv, "neat-kWh")
}

// BenchmarkFigure3Suspend regenerates the suspending-module study.
func BenchmarkFigure3Suspend(b *testing.B) {
	var osc int
	for i := 0; i < b.N; i++ {
		r := exp.RunFigure3()
		osc = r.SuspendsWithoutGrace - r.SuspendsWithGrace
	}
	b.ReportMetric(float64(osc), "oscillations-prevented")
}

// BenchmarkFigure4Model regenerates the idleness-model quality curves
// (one year per iteration to keep bench time reasonable; drowsyctl
// figure4 runs the full three years).
func BenchmarkFigure4Model(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		traces := exp.RunFigure4(1)
		f = traces[0].Final.FMeasure()
	}
	b.ReportMetric(100*f, "backup-F-%")
}

// BenchmarkSimulationSweep regenerates the §VI-B sweep (one compact
// configuration per iteration).
func BenchmarkSimulationSweep(b *testing.B) {
	cfg := exp.SimConfig{Hosts: 8, Slots: 4, Days: 14,
		Fractions: []float64{0.5, 1.0}, RebalanceEvery: 6}
	var improv float64
	for i := 0; i < b.N; i++ {
		pts := exp.RunSimulation(cfg)
		improv = pts[len(pts)-1].ImprovVsNeat
	}
	b.ReportMetric(improv, "improv-vs-neat-%")
}

// BenchmarkConsolidationScalingDrowsy measures Drowsy-DC's per-round
// cost growth (§VII: O(n)).
func BenchmarkConsolidationScalingDrowsy(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(vmCount(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := exp.RunScaling([]int{n})
				_ = pts[0].DrowsyIPs
			}
		})
	}
}

// BenchmarkConsolidationScalingOasis measures the O(n²) comparator.
func BenchmarkConsolidationScalingOasis(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(vmCount(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := exp.RunScaling([]int{n})
				_ = pts[0].OasisPairs
			}
		})
	}
}

// BenchmarkFleetScaling is the sharded executor's headline scaling
// series: one drowsy simulation over the §VII scaling population at
// fleet sizes up to a quarter million VMs, host and observation phases
// fanned out over GOMAXPROCS shard workers. Horizons shrink as the
// fleet grows (a week, a month, a day) so CI's single-iteration smoke
// pass stays bounded while the big sizes still prove the
// sharded runtime holds million-VM-hour workloads without
// memory exhaustion. Consolidation runs in the trigger-based
// production mode (no full relocation) with a single hour-0 round: the
// series measures the executor, not the policy — the policy's own cost
// growth is BenchmarkConsolidationScalingDrowsy. The quarter-million
// size holds ~7 GB of model state and skips under -short so CI's
// single-iteration smoke pass fits its runner.
func BenchmarkFleetScaling(b *testing.B) {
	for _, cfg := range []struct {
		vms, hours int
		heavy      bool
	}{
		{4096, 7 * 24, false},
		{65536, 24, false},
		{262144, 24, true},
	} {
		b.Run(fmt.Sprintf("vms-%d", cfg.vms), func(b *testing.B) {
			if cfg.heavy && testing.Short() {
				b.Skip("quarter-million-VM fleet needs ~7 GB; skipped in -short mode")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := exp.ScalingCluster(cfg.vms)
				res := dcsim.NewRunner(dcsim.Config{
					Hours:          cfg.hours,
					EnableSuspend:  true,
					UseGrace:       true,
					RebalanceEvery: cfg.hours + 1,
				}, c, drowsy.New(drowsy.Options{})).Run()
				if res.EnergyKWh <= 0 {
					b.Fatal("no energy")
				}
			}
		})
	}
}

func vmCount(n int) string {
	switch {
	case n >= 1000:
		return "vms-1024"
	case n >= 256:
		return "vms-256"
	default:
		return "vms-64"
	}
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)

// BenchmarkAblationGraceTime compares suspend-transition counts with
// and without the anti-oscillation grace time.
func BenchmarkAblationGraceTime(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		r := exp.RunFigure3()
		with, without = r.SuspendsWithGrace, r.SuspendsWithoutGrace
	}
	b.ReportMetric(float64(with), "suspends-with-grace")
	b.ReportMetric(float64(without), "suspends-without-grace")
}

// BenchmarkAblationNaiveResume compares the optimized (800 ms) and
// naive (1500 ms) resume paths on worst-case request latency.
func BenchmarkAblationNaiveResume(b *testing.B) {
	run := func(naive bool) float64 {
		s := Testbed()
		s.NaiveResume = naive
		rep, err := s.Run(PolicyDrowsyFull)
		if err != nil {
			b.Fatal(err)
		}
		return rep.WorstWakeLatencySeconds
	}
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		fast = run(false)
		slow = run(true)
	}
	b.ReportMetric(1000*fast, "optimized-ms")
	b.ReportMetric(1000*slow, "naive-ms")
}

// BenchmarkAblationIPPlacement isolates the value of the IP-based
// consolidation itself: Drowsy-DC vs Neat, both with identical S3
// support (the paper's Table I comparison).
func BenchmarkAblationIPPlacement(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		d := exp.RunTestbedPolicy("drowsy-full", 7, true, false) // grace off: isolate placement
		n := exp.RunTestbedPolicy("neat", 7, true, false)
		gain = 100 * (1 - d.EnergyKWh/n.EnergyKWh)
	}
	b.ReportMetric(gain, "placement-saving-%")
}

// BenchmarkAblationWeightLearning compares the idleness model's
// F-measure on the comics trace with learned weights vs frozen uniform
// weights (DescentRate ≈ 0 disables learning in practice).
func BenchmarkAblationWeightLearning(b *testing.B) {
	run := func(rate float64) float64 {
		g := trace.ComicStrips(0.5)
		m := core.NewWithOptions(core.Options{DescentRate: rate})
		var conf struct{ tp, fp, tn, fn int }
		for h := simtime.Hour(0); h < 2*simtime.HoursPerYear; h++ {
			st := simtime.Decompose(h)
			a := g.Activity(h)
			pred := m.PredictIdle(st)
			idle := a < core.DefaultNoiseFloor
			switch {
			case pred && idle:
				conf.tp++
			case pred && !idle:
				conf.fp++
			case !pred && idle:
				conf.fn++
			default:
				conf.tn++
			}
			m.Observe(st, a)
		}
		r := float64(conf.tp) / float64(conf.tp+conf.fn)
		p := float64(conf.tp) / float64(conf.tp+conf.fp)
		return 2 * r * p / (r + p)
	}
	var learned, frozen float64
	for i := 0; i < b.N; i++ {
		learned = run(0.1)
		frozen = run(1e-12)
	}
	b.ReportMetric(100*learned, "F-learned-%")
	b.ReportMetric(100*frozen, "F-frozen-%")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of hot paths

// BenchmarkModelObserve is the hourly model-builder update.
func BenchmarkModelObserve(b *testing.B) {
	m := core.New()
	g := trace.RealTrace(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := simtime.Hour(i % simtime.HoursPerYear)
		m.Observe(simtime.Decompose(h), g.Activity(h))
	}
}

// BenchmarkModelIP is the per-decision IP computation.
func BenchmarkModelIP(b *testing.B) {
	m := core.New()
	for h := simtime.Hour(0); h < 2000; h++ {
		m.Observe(simtime.Decompose(h), 0.3)
	}
	st := simtime.Decompose(99999)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.IP(st)
	}
}

// testbedCluster places the §VI-A VMs on their start hosts within a
// fleet of n hosts of 16 GB, 8 vCPUs and 4 slots: the mid-size cluster
// the rebalance micro-benchmarks run one round on.
func testbedCluster(n int) *cluster.Cluster {
	c := cluster.New()
	for i := 0; i < n; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprintf("P%d", i+2), 16, 8, 4))
	}
	for i, g := range exp.TestbedGroups() {
		v := cluster.NewVM(i, g.Name, g.Kind, g.MemGB, g.VCPUs, g.Gen)
		c.AddVM(v)
		if err := c.Place(v, c.Hosts()[g.StartHost-1]); err != nil {
			panic(err)
		}
	}
	return c
}

// BenchmarkRebalanceDrowsy is one full-relocation round on a mid-size
// cluster with trained models.
func BenchmarkRebalanceDrowsy(b *testing.B) {
	c := testbedCluster(16)
	p := drowsy.New(drowsy.Options{FullRelocation: true})
	for h := simtime.Hour(0); h < 48; h++ {
		for _, v := range c.VMs() {
			v.Model.Observe(simtime.Decompose(h), v.Activity(h))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rebalance(c, simtime.Hour(48+i))
	}
}

// BenchmarkRebalanceNeat is Neat's detection + selection + placement
// round.
func BenchmarkRebalanceNeat(b *testing.B) {
	c := testbedCluster(16)
	p := neat.New(neat.Options{})
	for h := simtime.Hour(0); h < 48; h++ {
		p.RecordHour(c, h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rebalance(c, simtime.Hour(48+i))
	}
}

// BenchmarkOasisRebalance measures one Oasis consolidation round at
// fleet populations with the incremental idle index warm — the steady
// state inside a simulation, where RecordHour maintains the index
// hourly. The pruned-pairs metric shows how much of the O(n²) pair
// structure the popcount bound skips without scoring.
func BenchmarkOasisRebalance(b *testing.B) {
	for _, n := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("vms-%d", n), func(b *testing.B) {
			c := exp.ScalingCluster(n)
			p := oasis.New(oasis.Options{})
			hr := simtime.Hour(30 * 24)
			p.Rebalance(c, hr) // warm the index and settle the placement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Rebalance(c, hr)
			}
			b.StopTimer()
			if evals := p.PairEvaluations(); evals > 0 {
				b.ReportMetric(100*float64(p.PrunedPairs())/float64(evals), "pruned-%")
			}
		})
	}
}

// BenchmarkOasisRebalanceExhaustive is the reference selection at one
// fleet size, the before side of the speedup recorded in ROADMAP.md.
func BenchmarkOasisRebalanceExhaustive(b *testing.B) {
	const n = 512
	b.Run(fmt.Sprintf("vms-%d", n), func(b *testing.B) {
		c := exp.ScalingCluster(n)
		p := oasis.New(oasis.Options{Exhaustive: true})
		hr := simtime.Hour(30 * 24)
		p.Rebalance(c, hr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Rebalance(c, hr)
		}
	})
}

// BenchmarkScenarioHeteroFleetYearOasis is the acceptance measurement:
// the flagship fleet scenario's Oasis policy column alone, at full
// scale (224 hosts, ~500 VMs, one year). The exhaustive selection cost
// ~25 s here and had to be excluded from the family; the criterion for
// the indexed search is ≤ 5 s.
func BenchmarkScenarioHeteroFleetYearOasis(b *testing.B) {
	f, ok := scenario.Lookup("hetero-fleet-year")
	if !ok {
		b.Fatal("hetero-fleet-year not registered")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := f.Build(scenario.Params{})
		sc.Policies = []scenario.PolicyConfig{{Label: "oasis", Policy: "oasis", Suspend: true}}
		rep, err := scenario.Run(sc, scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Policies[0].EnergyKWh <= 0 {
			b.Fatal("no oasis energy")
		}
	}
}

// BenchmarkFullWeekSimulation is the end-to-end runtime: a testbed week
// per iteration.
func BenchmarkFullWeekSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := exp.RunTestbedPolicy("drowsy-full", 7, true, true)
		if res.EnergyKWh <= 0 {
			b.Fatal("no energy")
		}
	}
}

// BenchmarkSubHourlyWeek is BenchmarkFullWeekSimulation at event
// resolution: the same testbed week with every transition hour
// simulated at sub-hourly granularity. The ratio between the two is
// the event layer's overhead (bounded by the acceptance criterion at
// 5×; transition-free hours still take the O(1) hourly path).
func BenchmarkSubHourlyWeek(b *testing.B) {
	b.ReportAllocs()
	var eventHours int
	for i := 0; i < b.N; i++ {
		res := exp.RunTestbedPolicyAt("drowsy-full", 7, true, true, dcsim.ResolutionEvent)
		if res.EnergyKWh <= 0 {
			b.Fatal("no energy")
		}
		eventHours = res.EventHours
	}
	b.ReportMetric(float64(eventHours), "event-hours")
}

// BenchmarkScenarioFacade exercises the public API end to end.
func BenchmarkScenarioFacade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := Testbed()
		s.Days = 2
		rep, err := s.Run(PolicyDrowsyFull)
		if err != nil {
			b.Fatal(err)
		}
		rep.Summary(io.Discard)
	}
}

// BenchmarkScenarioFamily runs one registered scenario family (the
// shared-trace flash-crowd shape at reduced scale) end to end through
// the scenario subsystem; CI's 1x pass keeps the catalog runnable.
func BenchmarkScenarioFamily(b *testing.B) {
	b.ReportAllocs()
	var energy float64
	for i := 0; i < b.N; i++ {
		rep, err := RunScenarioFamily("flash-crowd",
			ScenarioParams{Hosts: 8, HorizonHours: 7 * 24}, ScenarioOptions{})
		if err != nil {
			b.Fatal(err)
		}
		energy = rep.Policies[0].EnergyKWh
	}
	b.ReportMetric(energy, "drowsy-kWh")
}

// BenchmarkScenarioLossyWan runs the unreliable-WoL family end to end
// at reduced scale: every packet wake crosses the seeded drop schedule,
// the retry timer arithmetic and the core subnet's relay. The reported
// lost-SLA metric keeps the degradation magnitude visible in bench
// output; CI's 1x pass keeps the lossy path runnable.
func BenchmarkScenarioLossyWan(b *testing.B) {
	b.ReportAllocs()
	var lostSLA float64
	for i := 0; i < b.N; i++ {
		rep, err := RunScenarioFamily("lossy-wan",
			ScenarioParams{Hosts: 8, HorizonHours: 7 * 24}, ScenarioOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.WakeModel != "lossy" || rep.Policies[0].WakeAttempts == 0 {
			b.Fatal("no lossy wake traffic")
		}
		lostSLA = rep.Policies[0].LostWakeSLASeconds
	}
	b.ReportMetric(lostSLA, "lost-sla-s")
}

// BenchmarkScenarioSweep runs a three-point grace-time sensitivity
// sweep (3 points × 4 policies = 12 cells) through the sweep subsystem
// at reduced scale; CI's 1x pass keeps the sweep axis runnable.
func BenchmarkScenarioSweep(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		rep, err := RunScenarioSweep("diurnal-office",
			ScenarioParams{Hosts: 6, HorizonHours: 7 * 24},
			ScenarioSweep{Param: "grace", Values: []float64{0, 30, 120}},
			ScenarioOptions{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(rep.Points) - 1
		spread = rep.Points[last].Report.Policies[0].EnergyKWh -
			rep.Points[0].Report.Policies[0].EnergyKWh
	}
	b.ReportMetric(1000*spread, "grace-spread-Wh")
}
