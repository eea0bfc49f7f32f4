package scenario

import (
	"fmt"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/simtime"
)

// The crash-safety surface of a scenario run: callers (drowsyd's
// durable job layer, the CLI's resumable batch mode) attach a
// CheckpointPlan to capture month-boundary simulation state per cell
// and to restart cells from previously captured state, and every cell
// executes under panic isolation — a panicking cell surfaces as a
// structured PanicError from Run/RunSweep instead of killing the
// process. Both hooks are observe-or-restore only: a run with a
// checkpoint sink attached, and a run resumed from any of its own
// checkpoints, produce Reports byte-identical to a plain
// straight-through run at any worker count.

// CheckpointPlan attaches deterministic run checkpointing to a
// scenario's cells. Cells are identified by their flat index (the same
// index Options.Probe and Options.Progress observe: policy-minor, and
// for sweeps point-major) plus the policy label, so a caller can key
// durable storage without re-deriving grid geometry.
type CheckpointPlan struct {
	// EveryHours is the checkpoint cadence in simulated hours
	// (dcsim.Config.CheckpointEveryHours; 0 = monthly, 744 h).
	EveryHours int
	// Sink, when non-nil, receives each cell's serialized checkpoint
	// (checkpoint.Encode output) at every cadence boundary. Calls for
	// different cells arrive from concurrent worker goroutines; calls
	// for one cell are sequential in simulated-hour order. The data
	// slice is not reused — the sink may retain it.
	Sink func(cell int, policy string, hr simtime.Hour, data []byte)
	// Resume, when non-nil, is consulted once per cell before it
	// starts: a non-nil state (a decoded Sink blob) resumes the cell
	// through dcsim.ResumeRunner instead of running from hour zero; nil
	// runs the cell fresh. A state that fails to validate against the
	// cell's configuration fails the run with a descriptive error — a
	// checkpoint never silently degrades to a from-scratch run.
	Resume func(cell int, policy string) *checkpoint.RunState
}

// every returns the effective cadence for dcsim.Config (nil plan =
// no checkpointing at all).
func (p *CheckpointPlan) every() int {
	if p == nil {
		return 0
	}
	return p.EveryHours
}

// PanicError reports a panic inside one simulation cell, captured by
// the per-cell isolation barrier in runCell. The run's other cells
// complete normally; Run/RunSweep return the first panicking cell's
// error in cell order.
type PanicError struct {
	// Cell is the flat cell index (see CheckpointPlan).
	Cell int
	// Policy is the panicking cell's policy column label.
	Policy string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("scenario: cell %d (%s) panicked: %v", e.Cell, e.Policy, e.Value)
}

// cellOutcome is one par.Map element: a cell's result or its failure.
// Splitting the pair through the pool keeps par.Map's bit-identical
// index-addressed collection while letting errors propagate instead of
// panicking across goroutines.
type cellOutcome struct {
	res *dcsim.Result
	err error
}

// collect folds per-cell outcomes into the plain result slice the
// report assemblers consume, surfacing the first failure in cell order
// (deterministic regardless of which worker hit it first).
func collect(outs []cellOutcome) ([]*dcsim.Result, error) {
	results := make([]*dcsim.Result, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results[i] = o.res
	}
	return results, nil
}
