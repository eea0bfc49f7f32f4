// Package scenario is the declarative scenario-family subsystem: it
// composes heterogeneous host fleets, long horizons and diverse
// workload archetypes into named, parameterized datacenter scenarios
// that run through the experiment driver and report per-policy
// energy/SLA/latency outcomes.
//
// The paper's evaluation (§VI) exercises one testbed shape and one
// simulated sweep; this package is the scaffold for everything beyond
// it. A Scenario is pure data — host classes (capacity plus power
// profile), workload groups (an archetype trace fanned out over a
// population, optionally replicated, phase-shifted, timer-driven or
// churning with arrivals/departures) and the policy configurations to
// compare. Run materializes one independent cluster per policy cell,
// fans the cells over the bounded worker pool and aggregates a
// JSON-serializable Report.
//
// Families are registered scenario constructors: a Family is one struct
// literal (name, description, the paper claim or beyond-paper question
// it probes, and a Build function taking scale Params), so adding a
// workload family to the catalog — and to `drowsyctl scenario list` —
// is a single declaration. See families.go for the built-ins and
// DESIGN.md ("Scenario catalog") for what each one probes.
//
// Every workload group shares a single concurrent trace memo
// (trace.Memo) across all of its VMs, in all concurrently running
// policy cells: hundreds of VMs replaying one archetype trace pay the
// closure-chain evaluation once per hour total, instead of once per VM.
// Non-replicated members overlay their phase shift and jitter on the
// shared memo per read (trace.Source). Generators are pure, so these
// runs are bit-identical to runs where every VM memoizes its own member
// generator (asserted by equivalence_test.go, along with serial vs
// parallel execution).
package scenario
