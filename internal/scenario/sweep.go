package scenario

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"drowsydc/internal/dcsim"
	"drowsydc/internal/par"
	"drowsydc/internal/power"
	"drowsydc/internal/simtime"
)

// The parameter-sweep axis: a Scenario may name one registered runtime
// parameter and an ordered grid of values, and RunSweep executes the
// full family × policy × sweep-point grid, regenerating the paper's
// Figure-3-style sensitivity curves (grace time, consolidation period)
// at datacenter scale. Parameters are registry entries mapping a name
// onto the Tuning knobs that reach dcsim.Config, so any family can
// sweep any registered knob without bespoke code.

// Sweep is the parameter-sweep axis of a Scenario: one registered
// parameter name plus the ordered grid of values to evaluate it at. The
// zero value means "no sweep". Values must be strictly increasing — a
// sensitivity curve needs a monotone axis, and rejecting duplicates up
// front catches grid typos before hours of simulation.
type Sweep struct {
	// Param is a registered parameter name (see SweepParams).
	Param string
	// Values is the strictly increasing grid.
	Values []float64
}

// Enabled reports whether the axis is set.
func (s Sweep) Enabled() bool { return s.Param != "" || len(s.Values) > 0 }

// Tuning overrides runtime knobs that scenarios otherwise leave at the
// paper's values. The zero value changes nothing — every field keeps
// its "unset" encoding explicit so a swept value of zero is
// distinguishable from "use the default". Sweep parameters write these
// fields; they can also be set directly for one-off ablations.
type Tuning struct {
	// MaxGraceSeconds caps the anti-oscillation grace time (0 = the
	// paper's 2-minute bound).
	MaxGraceSeconds float64
	// DisableGrace forces the grace time off in every policy column,
	// including columns declared with Grace: true (the 0-seconds point
	// of a grace sweep).
	DisableGrace bool
	// SuspendLatencySeconds, ResumeLatencySeconds and
	// NaiveResumeLatencySeconds override the corresponding latency of
	// every host profile in the fleet (0 = profile value).
	SuspendLatencySeconds     float64
	ResumeLatencySeconds      float64
	NaiveResumeLatencySeconds float64
	// JitterAmount replaces the variant-trace jitter amplitude of
	// non-replicated workload-group members when JitterSet is true
	// (distinguishing a swept 0 — no jitter — from "unset").
	JitterAmount float64
	JitterSet    bool
	// ShardWorkers bounds the intra-run sharded executor's worker
	// goroutines (dcsim.Config.ShardWorkers). 0 keeps the runtime
	// serial (1): scenario grids already parallelize across policy
	// cells, so intra-run workers are an explicit opt-in for big
	// single-cell fleets. Results are bit-identical for every value.
	ShardWorkers int
	// shardHostSpan overrides the hosts-per-shard span (0 = the dcsim
	// default). Unexported: only the shard-equivalence tests need to
	// force multi-shard partitions onto small fleets.
	shardHostSpan int
}

// applyProfile returns p with the tuned latencies substituted. The
// naive resume can never be faster than the optimized one (the paper's
// quick-resume work only removes overhead), so a resume latency swept
// above the profile's naive bound lifts the naive bound to match. The
// inverse inversion — an explicit naive override below a profile's
// optimized resume — is rejected by Validate (checkLatencyOverrides)
// before any cell runs.
func (t Tuning) applyProfile(p power.Profile) power.Profile {
	if t.SuspendLatencySeconds > 0 {
		p.SuspendLatency = t.SuspendLatencySeconds
	}
	if t.ResumeLatencySeconds > 0 {
		p.ResumeLatency = t.ResumeLatencySeconds
	}
	if t.NaiveResumeLatencySeconds > 0 {
		p.NaiveResumeLatency = t.NaiveResumeLatencySeconds
	}
	if p.NaiveResumeLatency < p.ResumeLatency {
		p.NaiveResumeLatency = p.ResumeLatency
	}
	return p
}

// checkLatencyOverrides rejects a naive-resume override faster than
// the optimized resume of any profile in the fleet: silently
// lifting either bound would contaminate the swept axis (the optimized
// columns would change under a naive-latency sweep, or the naive axis
// would flatten), so the inconsistent grid point errors out instead.
func (t Tuning) checkLatencyOverrides(profiles []power.Profile) error {
	if t.NaiveResumeLatencySeconds == 0 {
		return nil
	}
	for _, p := range profiles {
		resume := p.ResumeLatency
		if t.ResumeLatencySeconds > 0 {
			resume = t.ResumeLatencySeconds
		}
		if t.NaiveResumeLatencySeconds < resume {
			return fmt.Errorf("naive-resume-latency %v below the optimized resume latency %v"+
				" (the naive path can only be slower)", t.NaiveResumeLatencySeconds, resume)
		}
	}
	return nil
}

// SweepParam is a registry entry describing one sweepable knob: how to
// validate a value and how to apply it to a scenario. New knobs are one
// RegisterParam call; the CLI catalog and the docs tooling pick them up
// from the registry.
type SweepParam struct {
	// Name is the registry key ("grace").
	Name string
	// Unit labels the axis in reports ("s", "h").
	Unit string
	// Description is the one-line catalog entry.
	Description string
	// Check validates a grid value; its error is surfaced verbatim.
	Check func(v float64) error
	// Apply writes the (already checked) value into the scenario.
	Apply func(v float64, sc *Scenario)
}

var paramRegistry = map[string]SweepParam{}

// RegisterParam adds a sweepable parameter to the registry, panicking
// on duplicates or malformed entries (registration is init-time,
// programmer-facing).
func RegisterParam(p SweepParam) {
	if p.Name == "" || p.Check == nil || p.Apply == nil {
		panic("scenario: RegisterParam without name, Check or Apply")
	}
	if _, dup := paramRegistry[p.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate sweep parameter %q", p.Name))
	}
	paramRegistry[p.Name] = p
}

// SweepParams returns the registered parameters sorted by name.
func SweepParams() []SweepParam {
	out := make([]SweepParam, 0, len(paramRegistry))
	for _, p := range paramRegistry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupParam finds a registered parameter by name.
func LookupParam(name string) (SweepParam, bool) {
	p, ok := paramRegistry[name]
	return p, ok
}

// paramNames lists the registered names for error messages.
func paramNames() string {
	names := make([]string, 0, len(paramRegistry))
	for _, p := range SweepParams() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func init() {
	RegisterParam(SweepParam{
		Name: "grace", Unit: "s",
		Description: "anti-oscillation grace-time upper bound; 0 disables grace entirely",
		Check: func(v float64) error {
			// Whole seconds only: the simulated clock has 1 s
			// granularity, so fractional grid points would silently
			// quantize into duplicate axis positions.
			if v != math.Trunc(v) || (v != 0 && (v < 5 || v > 3600)) {
				return fmt.Errorf("grace must be 0 (off) or a whole number of seconds in [5, 3600], got %v", v)
			}
			return nil
		},
		Apply: func(v float64, sc *Scenario) {
			if v == 0 {
				sc.Tuning.DisableGrace = true
			} else {
				sc.Tuning.MaxGraceSeconds = v
			}
		},
	})
	RegisterParam(SweepParam{
		Name: "rebalance", Unit: "h",
		Description: "consolidation period in hours",
		Check: func(v float64) error {
			if v < 1 || v > simtime.HoursPerYear || v != math.Trunc(v) {
				return fmt.Errorf("rebalance must be a whole number of hours in [1, %d], got %v",
					simtime.HoursPerYear, v)
			}
			return nil
		},
		Apply: func(v float64, sc *Scenario) { sc.RebalanceEvery = int(v) },
	})
	RegisterParam(SweepParam{
		Name: "suspend-latency", Unit: "s",
		Description: "S0→S3 transition latency of every host",
		Check:       latencyCheck("suspend-latency"),
		Apply:       func(v float64, sc *Scenario) { sc.Tuning.SuspendLatencySeconds = v },
	})
	RegisterParam(SweepParam{
		Name: "resume-latency", Unit: "s",
		Description: "optimized S3→S0 resume latency of every host",
		Check:       latencyCheck("resume-latency"),
		Apply:       func(v float64, sc *Scenario) { sc.Tuning.ResumeLatencySeconds = v },
	})
	RegisterParam(SweepParam{
		Name: "naive-resume-latency", Unit: "s",
		Description: "unoptimized resume latency charged by NaiveResume columns",
		Check:       latencyCheck("naive-resume-latency"),
		Apply:       func(v float64, sc *Scenario) { sc.Tuning.NaiveResumeLatencySeconds = v },
	})
	RegisterParam(SweepParam{
		Name: "resolution", Unit: "mode",
		Description: "activity resolution: 0 = hourly, 1 = sub-hourly event timelines",
		Check: func(v float64) error {
			if v != 0 && v != 1 {
				return fmt.Errorf("resolution must be 0 (hourly) or 1 (event timelines), got %v", v)
			}
			return nil
		},
		Apply: func(v float64, sc *Scenario) { sc.Resolution = dcsim.Resolution(int(v)) },
	})
	RegisterParam(SweepParam{
		Name: "jitter", Unit: "frac",
		Description: "variant-trace jitter amplitude of non-replicated group members",
		Check: func(v float64) error {
			if v < 0 || v >= 1 {
				return fmt.Errorf("jitter must be in [0, 1), got %v", v)
			}
			return nil
		},
		Apply: func(v float64, sc *Scenario) {
			sc.Tuning.JitterAmount = v
			sc.Tuning.JitterSet = true
		},
	})
}

// latencyCheck bounds a latency parameter to a physically plausible
// range (the paper's slowest measured transition is ~4 s).
func latencyCheck(name string) func(float64) error {
	return func(v float64) error {
		if v <= 0 || v > 60 {
			return fmt.Errorf("%s must be in (0, 60] seconds, got %v", name, v)
		}
		return nil
	}
}

// validateSweep checks the axis: known parameter, non-empty strictly
// increasing grid, every value in the parameter's range.
func (sc Scenario) validateSweep() error {
	sw := sc.Sweep
	if !sw.Enabled() {
		return nil
	}
	if sw.Param == "" {
		return fmt.Errorf("scenario %s: sweep has values but no parameter name", sc.Name)
	}
	p, ok := LookupParam(sw.Param)
	if !ok {
		return fmt.Errorf("scenario %s: unknown sweep parameter %q (registered: %s)",
			sc.Name, sw.Param, paramNames())
	}
	if len(sw.Values) == 0 {
		return fmt.Errorf("scenario %s: sweep over %q has an empty value grid", sc.Name, sw.Param)
	}
	for i, v := range sw.Values {
		// Shape checks name the offending index before anything else:
		// a NaN or negative grid entry must never survive to the
		// tuning pair-consistency checks, whose "naive below optimized"
		// complaint would point away from the actual typo.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario %s: sweep value %d over %q is not a finite number (%v)",
				sc.Name, i, sw.Param, v)
		}
		if v < 0 {
			return fmt.Errorf("scenario %s: sweep value %d over %q is negative (%v)",
				sc.Name, i, sw.Param, v)
		}
		if err := p.Check(v); err != nil {
			return fmt.Errorf("scenario %s: sweep value %d: %v", sc.Name, i, err)
		}
		if i > 0 && v <= sw.Values[i-1] {
			return fmt.Errorf("scenario %s: sweep values must be strictly increasing "+
				"(value %d: %v after %v)", sc.Name, i, v, sw.Values[i-1])
		}
	}
	return nil
}

// At returns the scenario of sweep point i: the swept parameter applied
// and the axis cleared, so the point is a plain runnable Scenario. The
// receiver's slices are shared, not copied — Apply only writes scalar
// fields.
func (sc Scenario) At(i int) Scenario {
	p, ok := LookupParam(sc.Sweep.Param)
	if !ok {
		panic(fmt.Sprintf("scenario: At on unvalidated sweep parameter %q", sc.Sweep.Param))
	}
	v := sc.Sweep.Values[i]
	point := sc
	point.Sweep = Sweep{}
	p.Apply(v, &point)
	return point
}

// SweepPoint is one axis position of a SweepReport: the swept value and
// the full per-policy report at that value. Report is embedded whole so
// a single-point sweep is byte-identical (as JSON) to the corresponding
// plain Run report — the equivalence the regression tests pin.
type SweepPoint struct {
	Value  float64 `json:"value"`
	Report Report  `json:"report"`
}

// SweepReport is a sweep's JSON-serializable outcome: the axis metadata
// plus one SweepPoint per grid value, in axis order.
type SweepReport struct {
	Scenario    string       `json:"scenario"`
	Description string       `json:"description"`
	Param       string       `json:"param"`
	Unit        string       `json:"unit"`
	Points      []SweepPoint `json:"points"`
}

// RenderTable writes the sweep as an aligned text table: one row per
// axis point, one energy/suspension/SLA/p99 column group per policy.
// Energy prints at Wh resolution — the knobs the axis sweeps (grace,
// latencies) move energy by watt-hours per event, which kWh-scale
// rounding would flatten into an apparently dead axis.
func (r *SweepReport) RenderTable(w io.Writer) {
	fmt.Fprintf(w, "%s — sweep over %s (%s)\n", r.Scenario, r.Param, r.Unit)
	if len(r.Points) == 0 {
		return
	}
	axisW := 12
	if n := len(r.Param); n > axisW {
		axisW = n
	}
	lossy := r.Points[0].Report.WakeModel != ""
	fmt.Fprintf(w, "%*s", axisW, r.Param)
	for _, pr := range r.Points[0].Report.Policies {
		fmt.Fprintf(w, "  %11s %6s %6s %7s", pr.Policy+"-kWh", "susp", "SLA%", "p99-s")
		if lossy {
			fmt.Fprintf(w, " %7s %6s %10s", "retries", "lost", "lost-sla-s")
		}
	}
	fmt.Fprintln(w)
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%*g", axisW, pt.Value)
		for _, pr := range pt.Report.Policies {
			fmt.Fprintf(w, "  %11.3f %6d %6.2f %7.3f",
				pr.EnergyKWh, pr.Suspends, 100*pr.SLAFraction, pr.P99LatencySeconds)
			if lossy {
				fmt.Fprintf(w, " %7d %6d %10.1f",
					pr.WakeRetries, pr.LostWakes, pr.LostWakeSLASeconds)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteJSON writes the indented JSON encoding the CLI emits (shared so
// the golden-report tests exercise the exact production path).
func (r *SweepReport) WriteJSON(w io.Writer) error { return writeIndentedJSON(w, r) }

// RunSweep validates and executes a scenario's sweep axis: every
// (sweep point × policy column) cell is an independent deterministic
// simulation, fanned out over one worker pool spanning the whole grid.
// Group trace stores are shared across all cells — sweep parameters
// never alter a group's base trace, so every point replays the same
// memo. Member timelines are shared across the cells of every point
// that applies the same jitter amount. Results are bit-identical at
// any worker count.
func RunSweep(sc Scenario, opt Options) (*SweepReport, error) {
	if !sc.Sweep.Enabled() {
		return nil, fmt.Errorf("scenario %s: RunSweep without a sweep axis (use Run)", sc.Name)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	param, _ := LookupParam(sc.Sweep.Param)
	points := make([]Scenario, len(sc.Sweep.Values))
	for i := range points {
		points[i] = sc.At(i)
		// Validate catches a parameter whose applied value breaks the
		// scenario itself (it cannot today, but a future capacity-like
		// parameter could), before workers start panicking.
		if err := points[i].Validate(); err != nil {
			return nil, fmt.Errorf("sweep point %d (%s=%v): %v",
				i, sc.Sweep.Param, sc.Sweep.Values[i], err)
		}
	}
	// One flat cell grid: point-major, policy-minor — the same order a
	// serial loop over points would produce, so reports assemble in
	// axis order regardless of scheduling.
	cols := sc.policies()
	// Stores are built for the most demanding resolution any point
	// selects: a resolution sweep on an hourly-default family must
	// still share one timeline store across its event points (hourly
	// cells never read bursts, so the store is inert for them).
	storeSrc := sc
	for _, point := range points {
		if point.Resolution == dcsim.ResolutionEvent {
			storeSrc.Resolution = dcsim.ResolutionEvent
			break
		}
	}
	stores := opt.stores(storeSrc, points)
	progress := opt.progressCounter(len(points) * len(cols))
	outs := par.Map(opt.Workers, len(points)*len(cols), func(i int) cellOutcome {
		res, err := runCell(points[i/len(cols)], i, cols[i%len(cols)], stores, nil, opt)
		progress()
		return cellOutcome{res, err}
	})
	cells, err := collect(outs)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		Scenario:    sc.Name,
		Description: sc.Description,
		Param:       sc.Sweep.Param,
		Unit:        param.Unit,
	}
	for pi, point := range points {
		rep.Points = append(rep.Points, SweepPoint{
			Value:  sc.Sweep.Values[pi],
			Report: assemble(point, cols, cells[pi*len(cols):(pi+1)*len(cols)]),
		})
	}
	return rep, nil
}

// RunFamilySweep builds the named family at the given scale, attaches
// the sweep axis and executes it — the one-call path the CLI and the
// facade use.
func RunFamilySweep(name string, p Params, sw Sweep, opt Options) (*SweepReport, error) {
	sc, err := BuildFamily(name, p)
	if err != nil {
		return nil, err
	}
	sc.Sweep = sw
	return RunSweep(sc, opt)
}

// ParseValues parses a comma-separated sweep grid ("5,30,120"). It
// rejects empty input, empty elements and non-numeric values; order and
// monotonicity are the sweep validation's concern, not the parser's.
func ParseValues(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("scenario: empty sweep value list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("scenario: empty element in sweep value list %q", s)
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad sweep value %q: not a number", part)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("scenario: sweep value %q is not finite", part)
		}
		out = append(out, v)
	}
	return out, nil
}
