package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"

	"drowsydc/internal/dcsim"
	"drowsydc/internal/metrics"
	"drowsydc/internal/par"
	"drowsydc/internal/power"
	"drowsydc/internal/simtime"
)

// Options tunes scenario execution, not its physics: every combination
// of options yields bit-identical Reports.
type Options struct {
	// Workers bounds concurrently executed policy cells (0 =
	// GOMAXPROCS, 1 = serial — the mode the equivalence tests compare
	// against).
	Workers int
	// Stores, when non-nil, sources the shared trace/timeline stores
	// from a server-lifetime cache instead of building per-run ones, so
	// repeated runs of the same workload structure (a drowsyd serving
	// loop) reuse one immutable memo. Results are bit-identical either
	// way.
	Stores *StoreCache
	// Progress, when non-nil, is called after each completed simulation
	// cell with the number of cells completed so far and the total (see
	// Scenario.CellCount). Calls arrive from concurrent worker
	// goroutines, possibly out of done order; the callback must be
	// cheap and thread-safe. It observes execution, never alters it.
	Progress func(done, total int)
	// Probe, when non-nil, attaches a flight-recorder probe to each
	// policy cell's simulation: it is called once per cell, serially and
	// in cell order before execution starts, with the cell index and
	// policy label, and the returned dcsim.Probe (nil = don't record
	// this cell) receives that cell's per-hour samples — and, if it is
	// a dcsim.PlacementProbe, each hour's placement. Observe-only, like
	// Progress: reports are bit-identical with or without it.
	Probe func(cell int, policy string) dcsim.Probe
	// ProbeTimings forwards wall-clock executor phase timings into the
	// probe samples (dcsim.Config.ProbeTimings) — the one
	// non-deterministic sample field, off by default.
	ProbeTimings bool
	// Context, when non-nil, cancels in-flight simulation cells
	// cooperatively at their next hour boundary: Run/RunSweep wait for
	// every started cell to reach a boundary, then return the context's
	// error. An uncancelled context changes nothing.
	Context context.Context
	// Checkpoint, when non-nil, attaches deterministic run
	// checkpointing: state capture into Checkpoint.Sink at the cadence
	// boundary, and per-cell resume from Checkpoint.Resume blobs.
	// Reports stay byte-identical with or without it (see crash.go).
	Checkpoint *CheckpointPlan

	// private gives every VM a memo of its own member generator, with
	// no shared store and no overlay: the reference the shared==private
	// identity tests compare overlay reads against. It wins over Stores.
	private bool
}

// PolicyResult is one comparison column of a scenario run.
type PolicyResult struct {
	Policy            string  `json:"policy"`
	EnergyKWh         float64 `json:"energy_kwh"`
	SuspendedFraction float64 `json:"suspended_fraction"`
	// Suspends counts S3 entries across the fleet — the paper's
	// Figure-3 oscillation metric, the quantity the grace time exists
	// to bound.
	Suspends          int     `json:"suspends"`
	Migrations        int     `json:"migrations"`
	Requests          int64   `json:"requests"`
	SLAFraction       float64 `json:"sla_fraction"`
	P99LatencySeconds float64 `json:"p99_latency_seconds"`
	MaxLatencySeconds float64 `json:"max_latency_seconds"`
	WorstWakeSeconds  float64 `json:"worst_wake_seconds"`
	ScheduledWakes    uint64  `json:"scheduled_wakes"`
	PacketWakes       uint64  `json:"packet_wakes"`

	// Lossy-WoL columns, present only when the scenario declares a
	// Network (omitempty keeps perfect-delivery reports byte-identical
	// to their pre-network form).
	WakeAttempts       uint64  `json:"wake_attempts,omitempty"`
	WakeRetries        uint64  `json:"wake_retries,omitempty"`
	LostWakes          uint64  `json:"lost_wakes,omitempty"`
	RelayedWakes       uint64  `json:"relayed_wakes,omitempty"`
	LostWakeSLASeconds float64 `json:"lost_wake_sla_seconds,omitempty"`
	WakePathKWh        float64 `json:"wake_path_kwh,omitempty"`
}

// Report is a scenario run's JSON-serializable outcome.
type Report struct {
	Scenario     string `json:"scenario"`
	Description  string `json:"description"`
	Hosts        int    `json:"hosts"`
	VMs          int    `json:"vms"`
	HorizonHours int    `json:"horizon_hours"`
	// WakeModel is "lossy" when the scenario declared a Network fabric
	// (gating the wake columns in tables); empty under perfect delivery.
	WakeModel string         `json:"wake_model,omitempty"`
	Policies  []PolicyResult `json:"policies"`
}

// WriteJSON writes the indented JSON encoding the CLI emits (shared so
// the golden-report tests exercise the exact production path).
func (r *Report) WriteJSON(w io.Writer) error { return writeIndentedJSON(w, r) }

// RenderTable writes the run as an aligned text table: one row per
// policy column (the run-report counterpart of SweepReport.RenderTable,
// which predates it). Energy prints at Wh resolution for the same
// reason the sweep table does: the suspend-dynamics knobs move energy
// by watt-hours per event, which kWh rounding would flatten.
func (r *Report) RenderTable(w io.Writer) {
	fmt.Fprintf(w, "%s — %d hosts, %d VMs, %d h\n", r.Scenario, r.Hosts, r.VMs, r.HorizonHours)
	polW := 8
	for _, pr := range r.Policies {
		if n := len(pr.Policy); n > polW {
			polW = n
		}
	}
	fmt.Fprintf(w, "%*s  %11s %6s %8s %6s %7s %7s %7s",
		polW, "policy", "energy-kWh", "susp%", "suspends", "migr", "SLA%", "p99-s", "wake-s")
	if r.WakeModel != "" {
		fmt.Fprintf(w, " %9s %7s %6s %10s", "wake-att", "retries", "lost", "lost-sla-s")
	}
	fmt.Fprintln(w)
	for _, pr := range r.Policies {
		fmt.Fprintf(w, "%*s  %11.3f %6.2f %8d %6d %7.2f %7.3f %7.3f",
			polW, pr.Policy, pr.EnergyKWh, 100*pr.SuspendedFraction, pr.Suspends,
			pr.Migrations, 100*pr.SLAFraction, pr.P99LatencySeconds, pr.WorstWakeSeconds)
		if r.WakeModel != "" {
			fmt.Fprintf(w, " %9d %7d %6d %10.1f",
				pr.WakeAttempts, pr.WakeRetries, pr.LostWakes, pr.LostWakeSLASeconds)
		}
		fmt.Fprintln(w)
	}
}

// writeIndentedJSON is the one CLI report encoding: run and sweep
// reports must never diverge in format.
func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Run validates and executes a scenario: one independent deterministic
// simulation per policy column, fanned out over the worker pool.
// Results are bit-identical at any worker count and with or without
// shared trace stores. A scenario carrying a sweep axis is rejected —
// silently ignoring the axis would report one arbitrary grid point as
// the whole curve; use RunSweep.
func Run(sc Scenario, opt Options) (*Report, error) {
	results, err := Simulate(sc, opt)
	if err != nil {
		return nil, err
	}
	rep := assemble(sc, sc.policies(), results)
	return &rep, nil
}

// Simulate is Run without the report: it returns each policy column's
// raw dcsim.Result in column order, for callers that read what a Report
// does not carry — per-host suspension, per-VM migrations, the latency
// collectors. The paper-artifact runners (internal/exp) and the root
// facade run through it.
func Simulate(sc Scenario, opt Options) ([]*dcsim.Result, error) {
	if sc.Sweep.Enabled() {
		return nil, fmt.Errorf("scenario %s: Run on a scenario with a sweep axis (use RunSweep)", sc.Name)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	stores := opt.stores(sc, []Scenario{sc})
	cols := sc.policies()
	progress := opt.progressCounter(len(cols))
	// Probes are minted serially in cell order so recorder creation is
	// deterministic even though cells execute concurrently.
	probes := make([]dcsim.Probe, len(cols))
	if opt.Probe != nil {
		for i, pc := range cols {
			probes[i] = opt.Probe(i, pc.Label)
		}
	}
	outs := par.Map(opt.Workers, len(cols), func(i int) cellOutcome {
		res, err := runCell(sc, i, cols[i], stores, probes[i], opt)
		progress()
		return cellOutcome{res, err}
	})
	return collect(outs)
}

// stores resolves the memos a call shares across its cells: none for
// the private test reference. Otherwise the group sources and
// timelines of sc's workload structure come from the server-lifetime
// cache when Stores is set and are built fresh if not, and the member
// timeline table is built for points, the call's scenarios, alone: it
// never enters the cache, so it lives exactly as long as the call.
func (opt Options) stores(sc Scenario, points []Scenario) runStores {
	if opt.private {
		return runStores{}
	}
	var st runStores
	if opt.Stores != nil {
		st = opt.Stores.storesFor(sc)
	} else {
		st = sc.sharedStores()
	}
	st.members = st.memberTimelines(points)
	return st
}

// progressCounter returns the per-cell completion hook: a shared atomic
// counter feeding opt.Progress, or a no-op when no observer is set.
func (opt Options) progressCounter(total int) func() {
	if opt.Progress == nil {
		return func() {}
	}
	var done atomic.Int64
	return func() { opt.Progress(int(done.Add(1)), total) }
}

// runCell executes one (scenario, policy column) cell: a fully
// independent deterministic simulation. Sweeps and plain runs share
// this path, which is what makes a single-point sweep byte-identical to
// the corresponding plain run. The deferred recover is the per-cell
// panic isolation barrier: a panic anywhere in the cell (policy code, a
// probe, the runtime) becomes a PanicError instead of unwinding through
// the worker pool and killing the process.
func runCell(sc Scenario, cell int, pc PolicyConfig, stores runStores, probe dcsim.Probe, opt Options) (res *dcsim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &PanicError{Cell: cell, Policy: pc.Label, Value: v, Stack: debug.Stack()}
		}
	}()
	c, arrivals, departures, profiles := sc.materialize(stores)
	for id, p := range profiles {
		profiles[id] = sc.Tuning.applyProfile(p)
	}
	shardWorkers := sc.Tuning.ShardWorkers
	if shardWorkers == 0 {
		// Grid cells are the outer parallel axis; the intra-run executor
		// stays serial unless a caller opts in (results are bit-identical
		// either way).
		shardWorkers = 1
	}
	cfg := dcsim.Config{
		Profile:              sc.Tuning.applyProfile(power.DefaultProfile()),
		HostProfiles:         profiles,
		Hours:                sc.HorizonHours,
		StartHour:            sc.Start,
		EnableSuspend:        pc.Suspend,
		UseGrace:             pc.Grace && !sc.Tuning.DisableGrace,
		MaxGraceSeconds:      sc.Tuning.MaxGraceSeconds,
		NaiveResume:          pc.NaiveResume,
		Resolution:           sc.Resolution,
		RebalanceEvery:       sc.RebalanceEvery,
		RequestsPerHour:      sc.RequestsPerHour,
		ShardWorkers:         shardWorkers,
		ShardHostSpan:        sc.Tuning.shardHostSpan,
		Network:              sc.Network.dcsimConfig(),
		Probe:                probe,
		ProbeTimings:         opt.ProbeTimings,
		Context:              opt.Context,
		CheckpointEveryHours: opt.Checkpoint.every(),
		Arrivals:             arrivals,
		Departures:           departures,
	}
	if opt.Checkpoint != nil && opt.Checkpoint.Sink != nil {
		sink := opt.Checkpoint.Sink
		cfg.Checkpoint = func(hr simtime.Hour, data []byte) { sink(cell, pc.Label, hr, data) }
	}
	var runner *dcsim.Runner
	if opt.Checkpoint != nil && opt.Checkpoint.Resume != nil {
		if st := opt.Checkpoint.Resume(cell, pc.Label); st != nil {
			if runner, err = dcsim.ResumeRunner(cfg, c, pc.newPolicy(), st); err != nil {
				return nil, fmt.Errorf("scenario: cell %d (%s): resume: %w", cell, pc.Label, err)
			}
		}
	}
	if runner == nil {
		runner = dcsim.NewRunner(cfg, c, pc.newPolicy())
	}
	res = runner.Run()
	if res == nil {
		// The runner returns nil only on cooperative cancellation.
		if opt.Context != nil && opt.Context.Err() != nil {
			return nil, opt.Context.Err()
		}
		return nil, fmt.Errorf("scenario: cell %d (%s) produced no result", cell, pc.Label)
	}
	return res, nil
}

// assemble folds per-column simulation results into a Report.
func assemble(sc Scenario, cols []PolicyConfig, results []*dcsim.Result) Report {
	rep := Report{
		Scenario:     sc.Name,
		Description:  sc.Description,
		Hosts:        sc.TotalHosts(),
		VMs:          sc.SimulatedVMs(),
		HorizonHours: sc.HorizonHours,
	}
	if sc.Network != nil {
		rep.WakeModel = "lossy"
	}
	for i, res := range results {
		suspends := 0
		for _, n := range res.SuspendCounts {
			suspends += n
		}
		pr := PolicyResult{
			Policy:            cols[i].Label,
			EnergyKWh:         res.EnergyKWh,
			SuspendedFraction: res.GlobalSuspFrac,
			Suspends:          suspends,
			Migrations:        res.Migrations,
			Requests:          res.Latency.Count(),
			SLAFraction:       res.Latency.SLAFraction(),
			P99LatencySeconds: res.Latency.Quantile(0.99),
			MaxLatencySeconds: res.Latency.Max(),
			WorstWakeSeconds:  res.WakeLatency.Max(),
			ScheduledWakes:    res.ScheduledWakes,
			PacketWakes:       res.PacketWakes,
		}
		if sc.Network != nil {
			pr.WakeAttempts = res.Wake.Attempts
			pr.WakeRetries = res.Wake.Retries
			pr.LostWakes = res.Wake.LostWakes
			pr.RelayedWakes = res.Wake.RelayedWakes
			pr.LostWakeSLASeconds = res.Wake.LostSLASeconds
			pr.WakePathKWh = res.Wake.PathJoules / metrics.JoulesPerKWh
		}
		rep.Policies = append(rep.Policies, pr)
	}
	return rep
}

// BuildFamily looks the named family up and builds it at the given
// scale, applying the Params-level resolution and shard-worker
// overrides. It is the shared validation front of RunFamily,
// RunFamilySweep and drowsyd's request decoder: every path rejects a
// malformed request with the identical error text, so the HTTP error
// envelope and the CLI's stderr never drift apart.
func BuildFamily(name string, p Params) (Scenario, error) {
	if p.Hosts < 0 || p.HorizonHours < 0 {
		// Zero means "family default"; a negative value is a typo that
		// must not silently run the (possibly year-scale) default.
		return Scenario{}, fmt.Errorf("scenario: negative scale override (hosts %d, horizon %d)",
			p.Hosts, p.HorizonHours)
	}
	f, ok := Lookup(name)
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown family %q (see `drowsyctl scenario list`)", name)
	}
	sc := f.Build(p)
	if err := applyResolution(&sc, p.Resolution); err != nil {
		return Scenario{}, err
	}
	applyShardWorkers(&sc, p.ShardWorkers)
	return sc, nil
}

// RunFamily looks a family up, builds it at the given scale and runs
// it — the one-call path the CLI and the facade use.
func RunFamily(name string, p Params, opt Options) (*Report, error) {
	sc, err := BuildFamily(name, p)
	if err != nil {
		return nil, err
	}
	return Run(sc, opt)
}

// CellCount returns the number of independent simulation cells a run
// (or, with a sweep axis, a sweep) of the scenario executes — the total
// an Options.Progress observer reports against.
func (sc Scenario) CellCount() int {
	cells := len(sc.policies())
	if sc.Sweep.Enabled() {
		cells *= len(sc.Sweep.Values)
	}
	return cells
}

// applyShardWorkers applies a Params-level shard-worker override (0
// keeps the scenario's Tuning value).
func applyShardWorkers(sc *Scenario, n int) {
	if n != 0 {
		sc.Tuning.ShardWorkers = n
	}
}

// applyResolution applies a Params-level resolution override ("" keeps
// the family's default).
func applyResolution(sc *Scenario, s string) error {
	if s == "" {
		return nil
	}
	res, err := dcsim.ParseResolution(s)
	if err != nil {
		return err
	}
	sc.Resolution = res
	return nil
}
