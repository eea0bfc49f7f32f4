package drowsydc

import (
	"drowsydc/internal/dcsim"
	"drowsydc/internal/scenario"
)

// The scenario-family facade: the public face of internal/scenario.
// Families compose heterogeneous fleets, long horizons and workload
// archetypes into named scenarios; see `drowsyctl scenario list` for
// the catalog and DESIGN.md ("Scenario catalog") for what each family
// probes.

// ScenarioFamily is a registered scenario constructor (name,
// description, the claim it probes, and a Build function).
type ScenarioFamily = scenario.Family

// ScenarioParams scales a family at build time; the zero value selects
// the family's defaults. Params.Resolution ("hourly" or "event")
// overrides the family's activity resolution.
type ScenarioParams = scenario.Params

// ScenarioResolution selects the temporal granularity of host
// dynamics: hourly (the paper's native model, the default) or
// event-driven sub-hourly timelines, where active hours expand into
// deterministic request bursts and idle gaps so the grace time and the
// S3 transition latencies compete at their true second scale.
type ScenarioResolution = dcsim.Resolution

// Available resolutions.
const (
	// ResolutionHourly is the whole-hour activity model (default).
	ResolutionHourly = dcsim.ResolutionHourly
	// ResolutionEvent is the sub-hourly event-timeline mode.
	ResolutionEvent = dcsim.ResolutionEvent
)

// ScenarioOptions tunes execution (worker count, progress and probe
// hooks, cancellation, checkpointing). Every option combination yields
// bit-identical reports.
type ScenarioOptions = scenario.Options

// ScenarioReport is a scenario run's JSON-serializable outcome: one
// energy/SLA/latency row per compared policy.
type ScenarioReport = scenario.Report

// ScenarioPolicyResult is one policy column of a ScenarioReport.
type ScenarioPolicyResult = scenario.PolicyResult

// ScenarioSpec is the declarative scenario form a ScenarioFamily
// builds: host classes, workload groups, horizon, policy columns and
// (optionally) a network fabric. Named ScenarioSpec because the root
// package's Scenario is the small builder API; run one with
// RunScenarioSpec after customizing what RunScenarioFamily cannot
// reach (topology, per-class profiles, policy columns).
type ScenarioSpec = scenario.Scenario

// ScenarioPolicyConfig is one policy-comparison column of a
// ScenarioSpec.
type ScenarioPolicyConfig = scenario.PolicyConfig

// ScenarioNetwork declares a scenario's unreliable Wake-on-LAN fabric:
// per-attempt magic-packet loss, retry-on-silence timing and the
// broadcast-domain topology. Scenarios without one (the default)
// simulate perfect delivery and report byte-identically to the
// pre-network simulator.
type ScenarioNetwork = scenario.Network

// ScenarioSubnet is one broadcast domain of a ScenarioNetwork: the host
// classes sharing a broadcast segment, optionally fronted by a WoL
// relay proxy.
type ScenarioSubnet = scenario.Subnet

// ScenarioSweep is a parameter-sweep axis: a registered parameter name
// plus the strictly increasing grid of values to evaluate it at.
type ScenarioSweep = scenario.Sweep

// ScenarioSweepParam describes one sweepable runtime knob (name, unit,
// description plus its validation and application hooks).
type ScenarioSweepParam = scenario.SweepParam

// ScenarioSweepReport is a sweep's outcome: axis metadata plus one full
// ScenarioReport per grid value, in axis order. It serializes to JSON
// and renders an aligned text table.
type ScenarioSweepReport = scenario.SweepReport

// ScenarioSweepPoint is one axis position of a ScenarioSweepReport.
type ScenarioSweepPoint = scenario.SweepPoint

// ScenarioFamilies returns the registered families sorted by name.
func ScenarioFamilies() []ScenarioFamily { return scenario.Families() }

// RunScenarioFamily builds the named family at the given scale and
// executes it.
func RunScenarioFamily(name string, p ScenarioParams, opt ScenarioOptions) (*ScenarioReport, error) {
	return scenario.RunFamily(name, p, opt)
}

// RunScenarioSpec validates and executes a customized ScenarioSpec —
// the escape hatch for experiments the family registry doesn't
// parameterize (edited subnets, bespoke policy columns, hand-built
// fleets). Results carry the same determinism guarantees as
// RunScenarioFamily.
func RunScenarioSpec(sc ScenarioSpec, opt ScenarioOptions) (*ScenarioReport, error) {
	return scenario.Run(sc, opt)
}

// ScenarioSweepParams returns the registered sweepable parameters
// sorted by name (grace bound, consolidation period, transition
// latencies, variant-trace jitter, ...).
func ScenarioSweepParams() []ScenarioSweepParam { return scenario.SweepParams() }

// RunScenarioSweep builds the named family at the given scale, attaches
// the sweep axis and executes the family × policy × sweep-point grid —
// the paper's Figure-3-style sensitivity curves at datacenter scale.
// Every cell is an independent deterministic simulation; results are
// bit-identical at any worker count.
func RunScenarioSweep(name string, p ScenarioParams, sw ScenarioSweep, opt ScenarioOptions) (*ScenarioSweepReport, error) {
	return scenario.RunFamilySweep(name, p, sw, opt)
}

// BuildScenarioFamily builds the named family at the given scale
// without executing it — the validation half of RunScenarioFamily,
// for callers (like the drowsyd service) that need to reject bad
// requests cheaply or customize the spec before running.
func BuildScenarioFamily(name string, p ScenarioParams) (ScenarioSpec, error) {
	return scenario.BuildFamily(name, p)
}

// ScenarioStoreCache is a cross-run immutable trace store: pass one via
// ScenarioOptions.Stores and every run that materializes the same
// workload structure (same families, scales, seeds, resolution) shares
// one trace/timeline memo, whatever its tuning, network fabric or sweep
// axis. Safe for concurrent use; results stay bit-identical. drowsyd
// holds one for its whole lifetime.
type ScenarioStoreCache = scenario.StoreCache

// NewScenarioStoreCache creates an empty cross-run trace store.
func NewScenarioStoreCache() *ScenarioStoreCache { return scenario.NewStoreCache() }
