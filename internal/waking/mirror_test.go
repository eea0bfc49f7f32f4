package waking

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"drowsydc/internal/netsim"
	"drowsydc/internal/sim"
	"drowsydc/internal/simtime"
)

// TestTakeoverAfterScheduledFire pins the mirror after a scheduled wake
// fired: the delivered wake must leave the mirror, or a survivor taking
// over re-registers the waking date and wakes the host a second time.
// Both fire paths are covered: the engine event and FireScheduled.
func TestTakeoverAfterScheduledFire(t *testing.T) {
	for _, tc := range []struct {
		name string
		fire func(e *sim.Engine, b *Module)
	}{
		{"engine", func(e *sim.Engine, _ *Module) { e.RunUntil(200) }},
		{"FireScheduled", func(_ *sim.Engine, b *Module) { b.FireScheduled(8) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			var woken []netsim.MAC
			a := newTestModule("a", e, &woken)
			b := newTestModule("b", e, &woken)
			Pair(a, b)
			b.HostSuspended(8, []netsim.VMID{80}, 100, true)
			tc.fire(e, b)
			b.Fail()
			if !a.CheckPeer(30) {
				t.Fatal("takeover did not happen")
			}
			e.RunUntil(1000)
			if len(woken) != 1 || woken[0] != 8 {
				t.Fatalf("woken = %v, want [8]: the delivered wake fired again after takeover", woken)
			}
			// The mapping itself is adopted: the host still sleeps until a
			// packet or its resume reaches the survivor.
			if mac, ok := a.Switch().Lookup(80); !ok || mac != 8 {
				t.Fatalf("survivor lookup of VM 80 = %d, %v; want host 8", mac, ok)
			}
		})
	}
}

// TestMirrorMatchesSnapshot drives both modules of a pair through a
// seeded random mix of every call that touches replicable state — with
// WoL callbacks that sometimes resume the host synchronously, as the
// simulator's do — and checks after each call that each module's mirror
// equals its peer's snapshot.
func TestMirrorMatchesSnapshot(t *testing.T) {
	const macs = 8
	rng := rand.New(rand.NewSource(1))
	e := sim.New()
	var mods [2]*Module
	for i := range mods {
		mods[i] = New(fmt.Sprintf("m%d", i), e, 3, func(mac netsim.MAC) {
			if rng.Intn(2) == 0 {
				mods[i].HostResumed(mac)
			}
		}, netsim.NewTable(0))
	}
	Pair(mods[0], mods[1])
	check := func(step int, op string) {
		t.Helper()
		for i, m := range mods {
			peer := mods[1-i]
			if got, want := live(peer.mirror), live(m.snapshot()); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s): mirror of m%d = %+v, snapshot = %+v",
					step, op, i, got, want)
			}
		}
	}
	for step := 0; step < 3000; step++ {
		m := mods[rng.Intn(2)]
		mac := netsim.MAC(rng.Intn(macs))
		var op string
		switch r := rng.Intn(10); {
		case r < 4:
			op = "suspend/resume"
			if _, asleep := m.Switch().HostVMs(mac); asleep {
				m.HostResumed(mac)
				break
			}
			vms := make([]netsim.VMID, rng.Intn(4))
			for k := range vms {
				vms[k] = netsim.VMID(int(mac)*4 + k)
			}
			wakeAt := e.Now() + simtime.Time(rng.Intn(60))
			m.HostSuspended(mac, vms, wakeAt, rng.Intn(3) > 0)
		case r < 6:
			op = "FireScheduled"
			m.FireScheduled(mac)
		case r < 8:
			op = "PacketArrived"
			m.PacketArrived(netsim.Packet{Dst: netsim.VMID(int(mac)*4 + rng.Intn(4))})
		default:
			op = "RunUntil"
			e.RunUntil(e.Now() + simtime.Time(rng.Intn(20)))
		}
		check(step, op)
	}
}

// live returns a state's entries for hosts mapped or dated: the mirror
// keeps the entries of hosts that have resumed since, and an empty
// entry reads as a missing one.
func live(s state) map[netsim.MAC]mirrored {
	out := map[netsim.MAC]mirrored{}
	for mac, e := range s.All() {
		if e.mapped || e.dated {
			out[mac] = *e
		}
	}
	return out
}

// pairWithSleepers returns a paired module holding sleepers suspended
// hosts whose wakes lie far beyond any cycle's.
func pairWithSleepers(sleepers int) (*Module, *sim.Engine) {
	e := sim.New()
	wol := func(netsim.MAC) {}
	a := New("a", e, 1, wol, netsim.NewTable(0))
	Pair(a, New("b", e, 1, wol, netsim.NewTable(0)))
	for h := 0; h < sleepers; h++ {
		mac := netsim.MAC(1 + h)
		a.HostSuspended(mac, []netsim.VMID{netsim.VMID(4 * mac), netsim.VMID(4*mac + 1)}, 1<<40, true)
	}
	return a, e
}

// suspendResumeCycle suspends and resumes host 0 with a scheduled wake,
// then pops the canceled timer so the engine queue stays flat.
func suspendResumeCycle(m *Module, e *sim.Engine) {
	m.HostSuspended(0, []netsim.VMID{0, 1}, 100, true)
	m.HostResumed(0)
	e.RunUntil(e.Now())
}

// TestSuspendResumeAllocsFlat guards the per-host mirror delta: one
// suspend+resume cycle allocates the same whatever the number of other
// sleepers the mirror holds.
func TestSuspendResumeAllocsFlat(t *testing.T) {
	var allocs [2]float64
	for i, sleepers := range []int{0, 63} {
		m, e := pairWithSleepers(sleepers)
		allocs[i] = testing.AllocsPerRun(200, func() { suspendResumeCycle(m, e) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs per cycle: %v with 0 sleepers, %v with 63; want equal", allocs[0], allocs[1])
	}
}

func BenchmarkSuspendResumeCycle(b *testing.B) {
	for _, sleepers := range []int{0, 63} {
		b.Run(fmt.Sprintf("sleepers-%d", sleepers), func(b *testing.B) {
			m, e := pairWithSleepers(sleepers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				suspendResumeCycle(m, e)
			}
		})
	}
}
