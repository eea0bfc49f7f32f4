// Package exp is the experiment harness: one runner per table and
// figure of the paper's evaluation (§VI), each regenerating the
// corresponding rows/series from the simulated substrate. The simulated
// artifacts declare their fleet as a scenario.Scenario and run through
// scenario.Simulate, the one path that builds a simulation runtime. The
// CLI (cmd/drowsyctl) and the benchmark suite (bench_test.go) are thin
// wrappers over this package.
package exp

import (
	"fmt"
	"io"

	"drowsydc/internal/cluster"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/scenario"
	"drowsydc/internal/trace"
)

// TestbedGroups returns the paper's §VI-A population, one single-VM
// group per VM pinned to its starting host: 2 LLMU VMs (V1, V2,
// initially on distinct machines, V2 on P2) and 6 LLMI VMs driven by
// the production-like traces, V3 and V4 receiving the exact same
// workload.
func TestbedGroups() []scenario.WorkloadGroup {
	vm := func(name string, kind cluster.Kind, gen trace.Generator, host int) scenario.WorkloadGroup {
		return scenario.WorkloadGroup{Name: name, Count: 1, Kind: kind, MemGB: 6, VCPUs: 2,
			Gen: gen, Replicated: true, StartHost: host}
	}
	return []scenario.WorkloadGroup{
		vm("V1", cluster.KindLLMU, trace.LLMU(11), 2),
		vm("V2", cluster.KindLLMU, trace.LLMU(22), 1),
		vm("V3", cluster.KindLLMI, trace.RealTrace(1), 1),
		vm("V4", cluster.KindLLMI, trace.RealTrace(1), 2),
		vm("V5", cluster.KindLLMI, trace.RealTrace(3), 3),
		vm("V6", cluster.KindLLMI, trace.RealTrace(4), 4),
		vm("V7", cluster.KindLLMI, trace.RealTrace(5), 3),
		vm("V8", cluster.KindLLMI, trace.RealTrace(2), 4),
	}
}

// testbed declares the §VI-A experiment — 4 pool hosts (P2–P5) with 2
// slots each, holding the TestbedGroups population — under the given
// policy columns.
func testbed(days int, res dcsim.Resolution, cols ...scenario.PolicyConfig) scenario.Scenario {
	return scenario.Scenario{
		Name:         "testbed",
		HorizonHours: days * 24,
		Hosts:        []scenario.HostClass{{Name: "P", Count: 4, MemGB: 16, VCPUs: 4, Slots: 2}},
		Groups:       TestbedGroups(),
		Policies:     cols,
		Resolution:   res,
	}
}

// simulate runs a scenario the harness declared. Such a scenario is
// valid by construction, so an error is a bug, not an input problem.
func simulate(sc scenario.Scenario, opt scenario.Options) []*dcsim.Result {
	res, err := scenario.Simulate(sc, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// RunTestbedPolicy executes the testbed under one policy configuration.
func RunTestbedPolicy(policy string, days int, enableSuspend, useGrace bool) *dcsim.Result {
	return RunTestbedPolicyAt(policy, days, enableSuspend, useGrace, dcsim.ResolutionHourly)
}

// RunTestbedPolicyAt is RunTestbedPolicy with an explicit activity
// resolution, so the sub-hourly event mode can be benchmarked on the
// exact workload the hourly baseline benchmarks run.
func RunTestbedPolicyAt(policy string, days int, enableSuspend, useGrace bool, res dcsim.Resolution) *dcsim.Result {
	col := scenario.PolicyConfig{Label: policy, Policy: policy, Suspend: enableSuspend, Grace: useGrace}
	return simulate(testbed(days, res, col), scenario.Options{})[0]
}

// writef writes formatted text, ignoring errors (experiment renderers
// target stdout or a strings.Builder).
func writef(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
