// Command drowsyctl regenerates the tables and figures of the Drowsy-DC
// paper from the simulated substrate.
//
// Usage:
//
//	drowsyctl figure1              # example workloads (Fig. 1)
//	drowsyctl figure2 [-days N]    # colocation matrix (Fig. 2)
//	drowsyctl table1  [-days N]    # suspended-time fractions (Table I)
//	drowsyctl energy  [-days N]    # energy + SLA summary (§VI-A-3)
//	drowsyctl figure3              # suspending module (Fig. 3, reconstructed)
//	drowsyctl table2               # trace catalogue (Table II)
//	drowsyctl figure4 [-years N]   # idleness model quality (Fig. 4)
//	drowsyctl simulation [...]     # DC-scale sweep (§VI-B, reconstructed)
//	drowsyctl scaling              # O(n) vs O(n²) comparison (§VII)
//	drowsyctl all                  # every paper artifact above
//	drowsyctl scenario list        # scenario-family catalog (beyond-paper workloads)
//	drowsyctl scenario params      # sweepable-parameter catalog
//	drowsyctl scenario run -name F # run a family, energy/SLA/latency JSON
//	drowsyctl scenario sweep -family F -param P -values a,b,c
//	                               # Figure-3-style sensitivity sweep at fleet scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"drowsydc/internal/exp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "figure1":
		runFigure1(os.Stdout, args)
	case "figure2", "table1", "energy":
		runTestbed(os.Stdout, cmd, args)
	case "figure3":
		exp.RunFigure3().Render(os.Stdout)
	case "table2":
		exp.RenderTable2(os.Stdout)
	case "figure4":
		runFigure4(os.Stdout, args)
	case "simulation":
		runSimulation(os.Stdout, args)
	case "scaling":
		runScaling(os.Stdout, args)
	case "scenario":
		runScenario(args)
	case "all":
		runAll()
	default:
		fmt.Fprintf(os.Stderr, "drowsyctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: drowsyctl <command> [flags]
commands: figure1 figure2 table1 energy figure3 table2 figure4 simulation scaling scenario all`)
}

func runFigure1(w io.Writer, args []string) {
	fs := flag.NewFlagSet("figure1", flag.ExitOnError)
	days := fs.Int("days", 6, "days of trace to render")
	_ = fs.Parse(args)
	exp.RunFigure1(*days).Render(w)
}

func runTestbed(w io.Writer, which string, args []string) {
	fs := flag.NewFlagSet(which, flag.ExitOnError)
	days := fs.Int("days", 7, "experiment length in days")
	_ = fs.Parse(args)
	r := exp.RunTestbed(*days)
	switch which {
	case "figure2":
		r.RenderFigure2(w)
	case "table1":
		r.RenderTable1(w)
	case "energy":
		r.RenderEnergy(w)
	}
}

func runFigure4(w io.Writer, args []string) {
	fs := flag.NewFlagSet("figure4", flag.ExitOnError)
	years := fs.Int("years", 3, "training horizon in years")
	_ = fs.Parse(args)
	exp.RenderFigure4(w, exp.RunFigure4(*years))
}

func runSimulation(w io.Writer, args []string) {
	fs := flag.NewFlagSet("simulation", flag.ExitOnError)
	cfg := exp.DefaultSimConfig()
	fs.IntVar(&cfg.Hosts, "hosts", cfg.Hosts, "number of hosts")
	fs.IntVar(&cfg.Slots, "slots", cfg.Slots, "VM slots per host")
	fs.IntVar(&cfg.Days, "days", cfg.Days, "simulated days")
	fs.IntVar(&cfg.RebalanceEvery, "rebalance", cfg.RebalanceEvery, "consolidation period (hours)")
	_ = fs.Parse(args)
	exp.RenderSimulation(w, cfg, exp.RunSimulation(cfg))
}

func runScaling(w io.Writer, args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	max := fs.Int("max", 512, "largest VM population")
	_ = fs.Parse(args)
	var sizes []int
	for n := 32; n <= *max; n *= 2 {
		sizes = append(sizes, n)
	}
	exp.RenderScaling(w, exp.RunScaling(sizes))
}

func runAll() {
	exp.RunFigure1(6).Render(os.Stdout)
	fmt.Println()
	r := exp.RunTestbed(7)
	r.RenderFigure2(os.Stdout)
	fmt.Println()
	r.RenderTable1(os.Stdout)
	fmt.Println()
	r.RenderEnergy(os.Stdout)
	fmt.Println()
	exp.RunFigure3().Render(os.Stdout)
	fmt.Println()
	exp.RenderTable2(os.Stdout)
	fmt.Println()
	exp.RenderFigure4(os.Stdout, exp.RunFigure4(3))
	fmt.Println()
	cfg := exp.DefaultSimConfig()
	exp.RenderSimulation(os.Stdout, cfg, exp.RunSimulation(cfg))
	fmt.Println()
	exp.RenderScaling(os.Stdout, exp.RunScaling([]int{32, 64, 128, 256}))
}
