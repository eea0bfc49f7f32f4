package checkpoint

import (
	"fmt"
	"testing"

	"drowsydc/internal/metrics"
)

// syntheticRunState builds a populated checkpoint state at a given VM
// count for the codec round-trip benchmark: every section filled with
// plausible mid-run values (sorted latency multisets, mixed power
// states, per-host placements) so the encoder and decoder walk the same
// shapes a real month-boundary capture produces.
func syntheticRunState(vms int) *RunState {
	hosts := vms / 8
	if hosts == 0 {
		hosts = 1
	}
	model := make([]byte, 48)
	for i := range model {
		model[i] = byte(i*7 + 3)
	}
	st := &RunState{
		Hour: 504, HorizonHours: 744,
		Policy: "drowsy",
		VMs:    make([]VMState, vms),
		Hosts:  make([]HostState, hosts),
		Shards: make([]ShardState, 8),
		HasNet: true, NetSerials: make([]uint64, hosts),
		Migrations: int64(vms / 3), MigrationSecs: 1.5 * float64(vms),
	}
	for i := range st.VMs {
		st.VMs[i] = VMState{
			ID: int32(i), Migrations: int32(i % 5),
			HasTimer: i%2 == 0, TimerAt: int64(500 + i%200), Model: model,
		}
	}
	for i := range st.Hosts {
		ids := make([]int32, 0, 8)
		for v := i; v < vms; v += hosts {
			ids = append(ids, int32(v))
		}
		st.Hosts[i] = HostState{
			ID: int32(i), VMIDs: ids, PState: uint8(i % 5), Since: float64(i),
			Util: 0.42, Joules: 1e6 + float64(i), StateJoules: [5]float64{1, 2, 3, 4, 5},
			SuspSecs: 3600, OffSecs: 60, TotalRef: 2e6, Transits: 12, Resumes: 4,
			GraceUntil: 510, ResumedAt: 490, HasWake: i%3 == 0, WakeAt: 520,
		}
		st.NetSerials[i] = uint64(i * 11)
	}
	for i := range st.Shards {
		lat := make([]metrics.LatencySample, 64)
		for k := range lat {
			lat[k] = metrics.LatencySample{Seconds: 0.25 * float64(k), Count: int64(k%9 + 1)}
		}
		st.Shards[i] = ShardState{
			Latency: lat, WakeLatency: lat[:16],
			ScheduledWakes: 40, PacketWakes: 9,
			WakeAttempts: 50, WakeRetries: 5, LostWakes: 1, RelayedWakes: 2,
			LostSLASeconds: 12.5, PathJoules: 88, EventHours: 100,
		}
	}
	return st
}

// roundTripSizes are the benchmarked fleet sizes: fixed, so results
// stay comparable across runs.
var roundTripSizes = []int{1024, 65536}

// benchRoundTrip measures one Encode+Decode cycle of a checkpoint at a
// given fleet size — the per-boundary cost a durable drowsyd run pays
// on top of the simulation itself.
func benchRoundTrip(vms int) func(*testing.B) {
	return func(b *testing.B) {
		st := syntheticRunState(vms)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st2, err := Decode(Encode(st))
			if err != nil {
				b.Fatal(err)
			}
			if len(st2.VMs) != vms {
				b.Fatalf("round trip lost VMs: %d != %d", len(st2.VMs), vms)
			}
		}
	}
}

// BenchmarkRoundTrip is the crash-safety codec at two fleet scales: the
// spill cost a durable run pays at each month boundary, and the restore
// cost replay pays per cell.
func BenchmarkRoundTrip(b *testing.B) {
	for _, vms := range roundTripSizes {
		b.Run(fmt.Sprintf("vms-%d", vms), benchRoundTrip(vms))
	}
}

// TestRoundTripBench smoke-runs the benchmark body once at every
// benchmarked size: the synthetic state must survive a full
// Encode/Decode cycle, or the benchmark would only discover the
// breakage at benchmark time.
func TestRoundTripBench(t *testing.T) {
	for _, vms := range roundTripSizes {
		benchRoundTrip(vms)(&testing.B{N: 1})
	}
}
