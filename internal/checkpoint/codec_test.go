package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"drowsydc/internal/metrics"
)

// sampleState builds a representative RunState exercising every
// section: multiple VMs with and without timers, hosts in every power
// state, two shards with latency multisets, net serials and policy
// state.
func sampleState() *RunState {
	return &RunState{
		Hour:         744,
		StartHour:    0,
		HorizonHours: 2160,
		Policy:       "drowsy",
		PolicyState:  []byte{1, 2, 3, 4},
		VMs: []VMState{
			{ID: 0, Migrations: 3, HasTimer: true, TimerAt: 2680000, Model: []byte{9, 8, 7}},
			{ID: 1, Migrations: 0, HasTimer: false, Model: nil},
			{ID: 7, Migrations: 1, HasTimer: true, TimerAt: -1, Model: []byte{0}},
		},
		Hosts: []HostState{
			{
				ID: 0, VMIDs: []int32{1, 0}, PState: 0, Since: 2678400.5, Util: 0.25,
				Joules: 1.5e8, StateJoules: [5]float64{1e8, 2e7, 1e7, 5e6, 0},
				SuspSecs: 3600, OffSecs: 0, TotalRef: 0, Transits: 12, Resumes: 12,
				GraceUntil: 2678500, MonSuspended: false, Decisions: 500, VetoGrace: 20,
				VetoBusy: 100, ResumedAt: 2678401, HasWake: false,
			},
			{
				ID: 1, VMIDs: []int32{7}, PState: 2, Since: 2000000, Util: 0,
				Joules: 9e7, SuspSecs: 600000, TotalRef: 0, Transits: 4, Resumes: 3,
				MonSuspended: true, Decisions: 400, ResumedAt: 1999000,
				HasWake: true, WakeAt: 2685600,
			},
			{ID: 2, VMIDs: nil, PState: 4, Since: 100, Joules: 50},
		},
		Shards: []ShardState{
			{
				Latency:        []metrics.LatencySample{{Seconds: 0.05, Count: 100000}, {Seconds: 0.85, Count: 3}},
				WakeLatency:    []metrics.LatencySample{{Seconds: 0.8, Count: 3}},
				ScheduledWakes: 40, PacketWakes: 3, WakeAttempts: 50, WakeRetries: 7,
				LostWakes: 1, RelayedWakes: 1, LostSLASeconds: 12.5, PathJoules: 80,
				EventHours: 9,
			},
			{},
		},
		HasNet:        true,
		NetSerials:    []uint64{5, 0, 99},
		Migrations:    17,
		MigrationSecs: 108.8,
		Departed:      []DepartedVM{{ID: 4, Migrations: 11}, {ID: 2, Migrations: 0}},
	}
}

func TestStateRoundTrip(t *testing.T) {
	st := sampleState()
	data := Encode(st)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", st, got)
	}
	// Re-encode must be byte-stable (capture → restore → capture).
	if !bytes.Equal(data, Encode(got)) {
		t.Fatal("re-encode of decoded state differs")
	}
}

// TestDecodeVersion1 pins a version-1 blob: sampleState as the
// version-1 encoder wrote it, before the departed-VM section existed.
// It still decodes, with no departed VMs, and re-encodes as the
// current version.
func TestDecodeVersion1(t *testing.T) {
	data, err := os.ReadFile("testdata/state-v1.drcp")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != 1 {
		t.Fatalf("fixture is version %d, want 1", v)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleState()
	want.Departed = nil
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("version-1 decode mismatch:\nwant: %+v\n got: %+v", want, got)
	}
	again, err := Decode(Encode(got))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatal("version-1 state does not survive a current-version round trip")
	}
	if v := binary.LittleEndian.Uint32(Encode(got)[4:]); v != stateVersion {
		t.Fatalf("re-encoded as version %d, want %d", v, stateVersion)
	}
}

func TestStateRoundTripMinimal(t *testing.T) {
	st := &RunState{Hour: 1, Policy: "oasis"}
	got, err := Decode(Encode(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != "oasis" || got.Hour != 1 || got.HasNet || len(got.VMs) != 0 {
		t.Fatalf("minimal state mangled: %+v", got)
	}
}

// TestDecodeTruncationEveryByte is the exhaustive truncation gate: a
// valid encoding cut at every byte boundary must error descriptively,
// never panic, never succeed.
func TestDecodeTruncationEveryByte(t *testing.T) {
	data := Encode(sampleState())
	for n := 0; n < len(data); n++ {
		st, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
		if st != nil {
			t.Fatalf("truncation to %d bytes returned a partial state", n)
		}
		if err.Error() == "" {
			t.Fatalf("truncation to %d bytes produced an empty error", n)
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	good := Encode(sampleState())
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":        mutate(func(b []byte) { b[0] = 0xFF }),
		"future version":   mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) }),
		"trailing garbage": append(append([]byte(nil), good...), 0xAB),
		"giant VM count": mutate(func(b []byte) {
			// VM count sits after header(8) + 3×i64 + name(2+6) + policy state(4+4).
			off := 8 + 24 + 2 + len("drowsy") + 4 + 4
			binary.LittleEndian.PutUint32(b[off:], 0xFFFFFFF0)
		}),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDecodeRejectsBadPowerState(t *testing.T) {
	st := sampleState()
	st.Hosts[0].PState = 9
	if _, err := Decode(Encode(st)); err == nil {
		t.Fatal("power state 9 accepted")
	}
}

func TestDecodeRejectsUnsortedSamples(t *testing.T) {
	st := sampleState()
	st.Shards[0].Latency = []metrics.LatencySample{{Seconds: 0.9, Count: 1}, {Seconds: 0.1, Count: 1}}
	if _, err := Decode(Encode(st)); err == nil {
		t.Fatal("unsorted latency samples accepted")
	}
	st = sampleState()
	st.Shards[0].Latency = []metrics.LatencySample{{Seconds: 0.1, Count: 0}}
	if _, err := Decode(Encode(st)); err == nil {
		t.Fatal("zero-count latency sample accepted")
	}
	st = sampleState()
	st.Shards[0].Latency = []metrics.LatencySample{{Seconds: -0.1, Count: 1}}
	if _, err := Decode(Encode(st)); err == nil {
		t.Fatal("negative latency sample accepted")
	}
}

// TestEncodeExactLength: Encode sizes its buffer once, exactly — the
// sample state (every section), a minimal one and a synthetic fleet
// encode in one allocation to a slice whose capacity is its length.
func TestEncodeExactLength(t *testing.T) {
	noNet := sampleState()
	noNet.HasNet, noNet.NetSerials = false, nil
	for _, st := range []*RunState{sampleState(), noNet, {Policy: "oasis"}, syntheticRunState(64)} {
		if data := Encode(st); len(data) != cap(data) || len(data) != encodedLen(st) {
			t.Fatalf("policy %q: encoded %d bytes into a buffer of %d (encodedLen %d)",
				st.Policy, len(data), cap(data), encodedLen(st))
		}
		if n := testing.AllocsPerRun(5, func() { Encode(st) }); n != 1 {
			t.Fatalf("policy %q: Encode allocated %v times, want 1", st.Policy, n)
		}
	}
}
