package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"drowsydc/internal/obs"
	"drowsydc/internal/scenario"
)

// runScenario dispatches the scenario subcommands:
//
//	drowsyctl scenario list                   # the registered family catalog
//	drowsyctl scenario params                 # the sweepable parameter catalog
//	drowsyctl scenario run -name F [flags]    # run a family, JSON on stdout
//	drowsyctl scenario sweep -family F -param P -values a,b,c [flags]
//	                                          # sensitivity sweep, JSON or table
func runScenario(args []string) {
	if len(args) < 1 {
		scenarioUsage()
		os.Exit(2)
	}
	switch args[0] {
	case "list":
		listScenarios(os.Stdout)
	case "params":
		listSweepParams(os.Stdout)
	case "run":
		runScenarioFamily(args[1:])
	case "sweep":
		runScenarioSweep(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "drowsyctl scenario: unknown subcommand %q\n", args[0])
		scenarioUsage()
		os.Exit(2)
	}
}

func scenarioUsage() {
	fmt.Fprintln(os.Stderr, `usage: drowsyctl scenario <list|params|run|sweep> [flags]
  list                     show the registered scenario families
  params                   show the sweepable parameters
  run -name F [-hosts N] [-horizon-days N] [-workers N] [-shard-workers N]
      [-resolution hourly|event] [-table]
      [-timeseries out.ndjson] [-timeseries-timings]
                           run family F, per-policy energy/SLA/latency JSON on
                           stdout (-table for an aligned text table);
                           -timeseries additionally writes the flight
                           recorder's per-hour ndjson series to a file
  sweep -family F -param P -values a,b,c [-hosts N] [-horizon-days N]
        [-workers N] [-shard-workers N] [-resolution hourly|event] [-table]
                           sweep parameter P over the value grid on family F;
                           JSON on stdout (-table for an aligned text table)`)
}

func listScenarios(w io.Writer) {
	fams := scenario.Families()
	fmt.Fprintf(w, "%-18s %6s %6s %9s  %s\n", "family", "hosts", "vms", "horizon", "description")
	for _, f := range fams {
		sc := f.Build(scenario.Params{})
		fmt.Fprintf(w, "%-18s %6d %6d %8dd  %s\n",
			f.Name, sc.TotalHosts(), sc.TotalVMs(), sc.HorizonHours/24, f.Description)
		fmt.Fprintf(w, "%-18s %s probes: %s\n", "", "      ", f.Probes)
	}
}

func listSweepParams(w io.Writer) {
	fmt.Fprintf(w, "%-22s %-5s %s\n", "param", "unit", "description")
	for _, p := range scenario.SweepParams() {
		fmt.Fprintf(w, "%-22s %-5s %s\n", p.Name, p.Unit, p.Description)
	}
}

// scaleFlags registers the family-scaling and execution flags shared by
// run and sweep. Two distinct worker knobs exist: -workers bounds how
// many (policy, grid-point) cells run concurrently, while
// -shard-workers bounds the goroutines *inside* each cell's sharded
// fleet executor — the knob that matters for one huge fleet rather
// than many small cells.
func scaleFlags(fs *flag.FlagSet) (hosts, horizonDays, workers, shardWorkers *int, resolution *string) {
	hosts = fs.Int("hosts", 0, "override fleet size (0 = family default)")
	horizonDays = fs.Int("horizon-days", 0, "override horizon in days (0 = family default)")
	workers = fs.Int("workers", 0,
		"policy/grid cells run concurrently (0 = GOMAXPROCS, 1 = serial); intra-run parallelism is -shard-workers")
	shardWorkers = fs.Int("shard-workers", 1,
		"goroutines per cell's sharded fleet executor (1 = serial; results are bit-identical at any value)")
	resolution = fs.String("resolution", "",
		"activity resolution override: hourly or event (empty = family default)")
	return
}

// validateShardWorkers rejects nonsensical -shard-workers values with
// an error that disambiguates the two worker flags. Unlike -workers
// there is no "0 = GOMAXPROCS" form here: grid cells own the outer
// parallelism, so intra-run fan-out is always an explicit opt-in.
func validateShardWorkers(cmd string, n int) {
	if n < 1 {
		fmt.Fprintf(os.Stderr,
			"drowsyctl scenario %s: -shard-workers must be >= 1 (got %d); "+
				"-shard-workers is the per-cell fleet executor's goroutine bound, "+
				"not the concurrent-cell bound (that is -workers, where 0 means GOMAXPROCS)\n",
			cmd, n)
		os.Exit(2)
	}
}

func runScenarioFamily(args []string) {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	name := fs.String("name", "", "family to run (see `drowsyctl scenario list`)")
	table := fs.Bool("table", false, "emit an aligned text table instead of JSON")
	timeseries := fs.String("timeseries", "",
		"write the flight recorder's per-hour ndjson series (one line per policy × hour) to this file")
	timings := fs.Bool("timeseries-timings", false,
		"include wall-clock executor phase timings in -timeseries lines (non-deterministic columns)")
	hosts, horizonDays, workers, shardWorkers, resolution := scaleFlags(fs)
	_ = fs.Parse(args)
	if *name == "" {
		fmt.Fprintln(os.Stderr, "drowsyctl scenario run: -name is required")
		scenarioUsage()
		os.Exit(2)
	}
	if *timings && *timeseries == "" {
		fmt.Fprintln(os.Stderr, "drowsyctl scenario run: -timeseries-timings requires -timeseries")
		os.Exit(2)
	}
	validateShardWorkers("run", *shardWorkers)
	opt := scenario.Options{Workers: *workers}
	var fr *obs.FlightRecorder
	if *timeseries != "" {
		fr = &obs.FlightRecorder{Timings: *timings}
		opt.Probe = fr.ProbeFor
		opt.ProbeTimings = *timings
	}
	if err := writeScenarioRun(os.Stdout, *name, *table,
		scenario.Params{Hosts: *hosts, HorizonHours: *horizonDays * 24,
			Resolution: *resolution, ShardWorkers: *shardWorkers}, opt); err != nil {
		fmt.Fprintln(os.Stderr, "drowsyctl scenario run:", err)
		os.Exit(1)
	}
	if fr != nil {
		if err := writeTimeseries(*timeseries, fr); err != nil {
			fmt.Fprintln(os.Stderr, "drowsyctl scenario run:", err)
			os.Exit(1)
		}
	}
}

// writeTimeseries dumps the flight recorder's ndjson to path.
func writeTimeseries(path string, fr *obs.FlightRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fr.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeScenarioRun runs a family and writes the report (JSON or table)
// to w; the golden-report regression test drives this exact path.
func writeScenarioRun(w io.Writer, name string, table bool, p scenario.Params, opt scenario.Options) error {
	rep, err := scenario.RunFamily(name, p, opt)
	if err != nil {
		return err
	}
	if table {
		rep.RenderTable(w)
		return nil
	}
	return rep.WriteJSON(w)
}

func runScenarioSweep(args []string) {
	fs := flag.NewFlagSet("scenario sweep", flag.ExitOnError)
	family := fs.String("family", "", "family to sweep (see `drowsyctl scenario list`)")
	param := fs.String("param", "", "parameter to sweep (see `drowsyctl scenario params`)")
	valueList := fs.String("values", "", "comma-separated, strictly increasing value grid")
	table := fs.Bool("table", false, "emit an aligned text table instead of JSON")
	hosts, horizonDays, workers, shardWorkers, resolution := scaleFlags(fs)
	_ = fs.Parse(args)
	if *family == "" || *param == "" || *valueList == "" {
		fmt.Fprintln(os.Stderr, "drowsyctl scenario sweep: -family, -param and -values are required")
		scenarioUsage()
		os.Exit(2)
	}
	validateShardWorkers("sweep", *shardWorkers)
	if err := writeScenarioSweep(os.Stdout, *family, *param, *valueList, *table,
		scenario.Params{Hosts: *hosts, HorizonHours: *horizonDays * 24,
			Resolution: *resolution, ShardWorkers: *shardWorkers},
		scenario.Options{Workers: *workers}); err != nil {
		fmt.Fprintln(os.Stderr, "drowsyctl scenario sweep:", err)
		os.Exit(1)
	}
}

// writeScenarioSweep parses the grid, runs the sweep and writes the
// report to w; the golden-report regression test drives this exact path.
func writeScenarioSweep(w io.Writer, family, param, valueList string, table bool,
	p scenario.Params, opt scenario.Options) error {
	values, err := scenario.ParseValues(valueList)
	if err != nil {
		return err
	}
	rep, err := scenario.RunFamilySweep(family, p,
		scenario.Sweep{Param: param, Values: values}, opt)
	if err != nil {
		return err
	}
	if table {
		rep.RenderTable(w)
		return nil
	}
	return rep.WriteJSON(w)
}
