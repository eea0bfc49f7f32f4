// Command drowsybench runs the repository's benchmark (package bench)
// and compares sets of runs.
//
//	drowsybench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-traced] [-smoke] [-out DIR]
//	drowsybench compare [-spec FILE] A B
//	drowsybench ledger -o FILE [-spec FILE] DIR...
//
// A run of one workload in one pass (untraced, or -trace 1) happens in
// this process and prints, as its last line of standard output, a JSON
// object with correct, attempted, failed and the pass's metrics as
// declared in BENCHMARK.json. -workload all and -traced run every
// requested (workload, pass) in a fresh child process, so no workload
// inherits another's heap or GC state. With -out, each run also writes
// DIR/<workload>.json, or DIR/<workload>.trace.json with its spans.
//
// compare takes two sides, each a directory of result files (any depth)
// or a ledger file, and prints per (workload, metric) the median and
// quartiles of each side with a verdict; it exits 1 when B regressed.
// ledger summarizes result directories into a committed baseline.
//
// Run it from the repository root (BENCHMARK.json is read from there);
// bench/run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"drowsydc/bench"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "ledger":
			os.Exit(ledger(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:]))
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "drowsybench: "+format+"\n", args...)
	return 2
}

func run(args []string) int {
	fs := flag.NewFlagSet("drowsybench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed; round k of seed s runs inputs derived from (s, k)")
	secs := fs.Float64("seconds", 0, "measured window per run (0 = BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	traced := fs.Bool("traced", false, "run the end-to-end pass and then the traced pass, each in a child process")
	smoke := fs.Bool("smoke", false, "one small round per workload")
	out := fs.String("out", "", "directory to write per-workload result files to")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return fail("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fail("-trace must be 0 or 1, got %d", *trace)
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		return fail("%v", err)
	}
	if *secs == 0 {
		*secs = float64(spec.RunSeconds)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail("%v", err)
		}
	}
	if *workload == "all" || *traced {
		return coordinate(*workload, *traced, *trace == 1, args)
	}
	res, err := bench.Run(bench.Config{
		Workload: *workload, Seed: *seed, Seconds: *secs, Traced: *trace == 1, Smoke: *smoke,
	})
	if err != nil {
		return fail("%s: %v", *workload, err)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "drowsybench: %s: check failed: %s\n", res.Workload, e)
	}
	if *out != "" {
		name := res.Workload + ".json"
		if res.Traced {
			name = res.Workload + ".trace.json"
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fail("%v", err)
		}
		if err := os.WriteFile(filepath.Join(*out, name), append(data, '\n'), 0o644); err != nil {
			return fail("%v", err)
		}
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]bench.Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]bench.Metric{}}
	for _, m := range spec.Metrics(res.Traced) {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
			return fail("%s: metric %s missing, non-finite or not in %s (%+v)", res.Workload, m.Name, m.Unit, v)
		}
		line.Metrics[m.Name] = v
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(data))
	return 0
}

// coordinate re-runs this binary once per requested (workload, pass),
// passing the original flags through with the workload and pass fixed.
func coordinate(workload string, traced, onlyTraced bool, args []string) int {
	self, err := os.Executable()
	if err != nil {
		return fail("%v", err)
	}
	names := []string{workload}
	if workload == "all" {
		names = nil
		for _, w := range bench.Workloads() {
			names = append(names, w.Name)
		}
	}
	passes := []int{0}
	switch {
	case traced:
		passes = []int{0, 1}
	case onlyTraced:
		passes = []int{1}
	}
	status := 0
	for _, name := range names {
		for _, pass := range passes {
			childArgs := append(append([]string(nil), args...),
				"-workload", name, "-trace", strconv.Itoa(pass), "-traced=false")
			cmd := exec.Command(self, childArgs...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "drowsybench: %s (trace %d): %v\n", name, pass, err)
				status = 1
			}
		}
	}
	return status
}

func loadSides(fs *flag.FlagSet, specPath string) (*bench.Spec, [][]bench.Result, error) {
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		return nil, nil, err
	}
	var sides [][]bench.Result
	for _, p := range fs.Args() {
		runs, err := bench.LoadRuns(p)
		if err != nil {
			return nil, nil, err
		}
		sides = append(sides, runs)
	}
	return spec, sides, nil
}

func compare(args []string) int {
	fs := flag.NewFlagSet("drowsybench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		return fail("compare takes two sides: A (baseline) and B")
	}
	spec, sides, err := loadSides(fs, *specPath)
	if err != nil {
		return fail("%v", err)
	}
	rows := bench.Compare(spec, sides[0], sides[1])
	bench.WriteRows(os.Stdout, rows)
	if bench.Failing(rows) {
		return 1
	}
	return 0
}

func ledger(args []string) int {
	fs := flag.NewFlagSet("drowsybench ledger", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	outPath := fs.String("o", "", "ledger file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *outPath == "" || fs.NArg() == 0 {
		return fail("ledger takes -o FILE and at least one result directory")
	}
	spec, sides, err := loadSides(fs, *specPath)
	if err != nil {
		return fail("%v", err)
	}
	var runs []bench.Result
	for _, s := range sides {
		runs = append(runs, s...)
	}
	if err := bench.WriteLedger(*outPath, bench.NewLedger(spec, runs)); err != nil {
		return fail("%v", err)
	}
	return 0
}
