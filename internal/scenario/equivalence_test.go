package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"drowsydc/internal/simtime"
)

// The scenario runner layers two execution choices on top of the
// deterministic simulation — cell parallelism and the shared-trace
// store — and both must be invisible in the results. These tests assert
// bit-identity (reflect.DeepEqual over float64 fields compares exact
// bits), mirroring internal/exp/equivalence_test.go for the sweep
// driver.

// equivFamilies are shrunk but structurally diverse: a plain mix, a
// replicated-group family (shared store actually engaged, including the
// 200-replica shape at reduced scale) and a churn family (arrivals,
// departures).
var equivFamilies = []string{"always-on-mix", "flash-crowd", "vm-churn"}

// TestSerialParallelIdentical compares Workers=1 against the full
// worker pool.
func TestSerialParallelIdentical(t *testing.T) {
	for _, name := range equivFamilies {
		sc := small(name)
		serial, err := Run(sc, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Run(sc, Options{Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: serial and parallel reports differ\nserial:   %+v\nparallel: %+v",
				name, serial, parallel)
		}
	}
}

// TestSweepSerialParallelIdentical compares a sweep run serially
// against the full worker pool: the flattened point × policy grid must
// assemble into bit-identical reports regardless of scheduling. The
// grace axis engages on diurnal-office (management wakes during
// rebalances), so the points genuinely differ from each other.
func TestSweepSerialParallelIdentical(t *testing.T) {
	sc := small("diurnal-office")
	sc.Sweep = Sweep{Param: "grace", Values: []float64{0, 30, 120}}
	serial, err := RunSweep(sc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(sc, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel sweep reports differ\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestSweepSharedPrivateIdentical compares a sweep with the shared
// trace store (one memo spanning every point × policy cell) against
// private per-VM caches. The jitter sweep runs lossy-wan at event
// resolution, where each non-replicated member's timeline memo is
// shared only among the points of one jitter amount.
func TestSweepSharedPrivateIdentical(t *testing.T) {
	lossy, err := BuildFamily("lossy-wan", Params{Hosts: 4, HorizonHours: 3 * simtime.HoursPerDay})
	if err != nil {
		t.Fatal(err)
	}
	lossy.Sweep = Sweep{Param: "jitter", Values: []float64{0, 0.1, 0.3}}
	flash := small("flash-crowd")
	flash.Sweep = Sweep{Param: "rebalance", Values: []float64{3, 12}}
	for _, sc := range []Scenario{flash, lossy} {
		shared, err := RunSweep(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		private, err := RunSweep(sc, Options{private: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, private) {
			t.Fatalf("%s: shared-store and private-cache sweep reports differ\nshared:  %+v\nprivate: %+v",
				sc.Name, shared, private)
		}
	}
}

// TestSweepPointMatchesPlainRun pins the sweep to the plain runner: a
// single-point sweep's embedded report must be byte-identical (as JSON)
// to the corresponding plain Run report — sweeping must never change
// the physics, only fan it out.
func TestSweepPointMatchesPlainRun(t *testing.T) {
	for _, pt := range []struct {
		param string
		value float64
	}{
		{"grace", 30},
		{"rebalance", 3},
		{"resume-latency", 2.5},
		{"jitter", 0.4},
	} {
		sc := small("diurnal-office")
		sc.Sweep = Sweep{Param: pt.param, Values: []float64{pt.value}}
		sweep, err := RunSweep(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(sweep.Points) != 1 {
			t.Fatalf("%s: %d points, want 1", pt.param, len(sweep.Points))
		}
		plain, err := Run(sc.At(0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(sweep.Points[0].Report)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s=%v: sweep point differs from plain run\nsweep: %s\nplain: %s",
				pt.param, pt.value, got, want)
		}
	}
}

// TestSharedPrivateIdentical compares the shared-trace store against
// per-VM private caches, with cells running concurrently in both modes
// so the shared store sees real cross-cell contention.
func TestSharedPrivateIdentical(t *testing.T) {
	for _, name := range equivFamilies {
		sc := small(name)
		shared, err := Run(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		private, err := Run(sc, Options{private: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, private) {
			t.Fatalf("%s: shared-store and private-cache reports differ\nshared:  %+v\nprivate: %+v",
				name, shared, private)
		}
	}
}
