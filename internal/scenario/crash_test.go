package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"drowsydc/internal/checkpoint"
	"drowsydc/internal/dcsim"
	"drowsydc/internal/simtime"
)

// crashParams is the small family scale the crash-safety tests run at:
// big enough to exercise churn and multi-shard partitions, small enough
// for every-blob resume sweeps.
var crashParams = Params{Hosts: 8, HorizonHours: 3 * 24}

// captureBlobs runs the family once with a checkpoint sink attached and
// returns the straight-through report plus every captured blob keyed by
// (cell, hour). The sink mutex makes the map safe under Workers > 1;
// blob content is deterministic regardless of worker scheduling.
func captureBlobs(t *testing.T, family string, p Params, every int, opt Options) (*Report, map[[2]int][]byte) {
	t.Helper()
	var mu sync.Mutex
	blobs := map[[2]int][]byte{}
	opt.Checkpoint = &CheckpointPlan{
		EveryHours: every,
		Sink: func(cell int, policy string, hr simtime.Hour, data []byte) {
			mu.Lock()
			blobs[[2]int{cell, int(hr)}] = data
			mu.Unlock()
		},
	}
	rep, err := RunFamily(family, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep, blobs
}

// statesAt decodes every cell's blob captured at hour hr, so a resumed
// run gets states no other run has touched.
func statesAt(t *testing.T, blobs map[[2]int][]byte, hr int) map[int]*checkpoint.RunState {
	t.Helper()
	states := map[int]*checkpoint.RunState{}
	for k, b := range blobs {
		if k[1] != hr {
			continue
		}
		st, err := checkpoint.Decode(b)
		if err != nil {
			t.Fatalf("cell %d hour %d: %v", k[0], hr, err)
		}
		states[k[0]] = st
	}
	return states
}

// resumeFrom is a CheckpointPlan that resumes every cell from its state
// in states.
func resumeFrom(states map[int]*checkpoint.RunState) *CheckpointPlan {
	return &CheckpointPlan{
		Resume: func(cell int, policy string) *checkpoint.RunState { return states[cell] },
	}
}

// TestScenarioResumeByteIdentical is the tentpole gate at the report
// level: a family run resumed from any captured checkpoint emits report
// JSON byte-identical to the straight-through run, at shard-worker
// counts 1 and 8 — including resuming under a different worker count
// than the capture ran at.
func TestScenarioResumeByteIdentical(t *testing.T) {
	want, blobs := captureBlobs(t, "always-on-mix", crashParams, 24, Options{Workers: 2})
	wantJSON := reportJSON(t, want)
	cells := len(DefaultPolicies())
	if len(blobs) != 2*cells { // 72 h at cadence 24 → hours 24 and 48 per cell
		t.Fatalf("captured %d blobs, want %d", len(blobs), 2*cells)
	}

	for _, workers := range []int{1, 8} {
		for hr := 24; hr <= 48; hr += 24 {
			t.Run(fmt.Sprintf("workers=%d/hour=%d", workers, hr), func(t *testing.T) {
				p := crashParams
				p.ShardWorkers = workers
				rep, err := RunFamily("always-on-mix", p, Options{
					Workers:    2,
					Checkpoint: resumeFrom(statesAt(t, blobs, hr)),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantJSON, reportJSON(t, rep)) {
					t.Fatal("resumed report differs from straight-through run")
				}
			})
		}
	}
}

// TestScenarioResumeTimerDriven: hr-timers survive a resume.
// bursty-batch's VMs are timer-driven, so its checkpoints hold pending
// and expired hr-timers, and each host's waking date is rebuilt from
// them. The run resumed from every captured boundary, at hourly and
// event resolution, must emit the straight-through report byte for
// byte.
func TestScenarioResumeTimerDriven(t *testing.T) {
	const every, horizon = 6, 7 * 24
	for _, res := range []string{"hourly", "event"} {
		t.Run(res, func(t *testing.T) {
			p := Params{Hosts: 16, HorizonHours: horizon, Resolution: res}
			want, blobs := captureBlobs(t, "bursty-batch", p, every, Options{Workers: 2})
			wantJSON := reportJSON(t, want)
			timers := 0
			for hr := every; hr < horizon; hr += every {
				states := statesAt(t, blobs, hr)
				if len(states) != len(DefaultPolicies()) {
					t.Fatalf("hour %d: %d states, want one per cell", hr, len(states))
				}
				for _, st := range states {
					for _, vs := range st.VMs {
						if vs.HasTimer {
							timers++
						}
					}
				}
				rep, err := RunFamily("bursty-batch", p, Options{Workers: 2, Checkpoint: resumeFrom(states)})
				if err != nil {
					t.Fatalf("hour %d: %v", hr, err)
				}
				if !bytes.Equal(wantJSON, reportJSON(t, rep)) {
					t.Fatalf("run resumed at hour %d differs from the straight-through run", hr)
				}
			}
			if timers == 0 {
				t.Fatal("no checkpoint holds an hr-timer")
			}
		})
	}
}

// TestScenarioCheckpointsWorkerInvariant pins that the captured blobs
// themselves are bit-identical across grid worker counts — the property
// that lets drowsyd spill checkpoints from a parallel grid and resume
// them serially (or vice versa).
func TestScenarioCheckpointsWorkerInvariant(t *testing.T) {
	_, serial := captureBlobs(t, "always-on-mix", crashParams, 24, Options{Workers: 1})
	_, par := captureBlobs(t, "always-on-mix", crashParams, 24, Options{Workers: 8})
	if len(serial) == 0 || len(serial) != len(par) {
		t.Fatalf("blob counts differ: %d vs %d", len(serial), len(par))
	}
	for k, b := range serial {
		if !bytes.Equal(b, par[k]) {
			t.Fatalf("checkpoint %v differs across worker counts", k)
		}
	}
}

// TestScenarioResumeBadBlob: a resume source handing a cell a state
// the cell cannot resume — here, another policy's — must fail the run
// descriptively, never silently rerun from hour zero.
func TestScenarioResumeBadBlob(t *testing.T) {
	_, blobs := captureBlobs(t, "always-on-mix", crashParams, 24, Options{Workers: 1})
	states := statesAt(t, blobs, 24)
	cells := len(states)
	_, err := RunFamily("always-on-mix", crashParams, Options{
		Workers: 1,
		Checkpoint: &CheckpointPlan{
			Resume: func(cell int, policy string) *checkpoint.RunState { return states[(cell+1)%cells] },
		},
	})
	if err == nil || !strings.Contains(err.Error(), "cannot resume policy") {
		t.Fatalf("another policy's state: error %v, want a refused resume", err)
	}
}

// TestScenarioCancellation: cancelling the run context stops every cell
// at its next hour boundary and surfaces the context error from both
// Run and RunSweep.
func TestScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	_, err := RunFamily("always-on-mix", crashParams, Options{
		Workers: 1,
		Context: ctx,
		Checkpoint: &CheckpointPlan{
			EveryHours: 1,
			Sink: func(cell int, policy string, hr simtime.Hour, data []byte) {
				fired++
				if fired == 3 {
					cancel()
				}
			},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err = RunFamilySweep("always-on-mix", crashParams,
		Sweep{Param: "grace", Values: []float64{30, 60}},
		Options{Workers: 1, Context: ctx2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}

	// An uncancelled context changes nothing: byte-identical report.
	plain, err := RunFamily("always-on-mix", crashParams, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	live, err := RunFamily("always-on-mix", crashParams, Options{Workers: 1, Context: ctx3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, plain), reportJSON(t, live)) {
		t.Fatal("attaching an uncancelled context changed the report")
	}
}

// TestScenarioPanicIsolation: a panic inside one cell (here injected
// through its probe, which runs on the cell goroutine) must not unwind
// the process — it surfaces as a *PanicError naming the cell, and the
// other cells complete.
func TestScenarioPanicIsolation(t *testing.T) {
	_, err := RunFamily("always-on-mix", crashParams, Options{
		Workers: 2,
		Probe: func(cell int, policy string) dcsim.Probe {
			if cell != 1 {
				return nil
			}
			return panicProbe{}
		},
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking cell returned %v, want *PanicError", err)
	}
	if pe.Cell != 1 || pe.Policy != DefaultPolicies()[1].Label {
		t.Fatalf("panic attributed to cell %d (%s), want cell 1", pe.Cell, pe.Policy)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload mangled: value %v, %d stack bytes", pe.Value, len(pe.Stack))
	}
}

type panicProbe struct{}

func (panicProbe) ObserveHour(dcsim.HourSample) { panic("boom") }
