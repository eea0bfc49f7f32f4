package netsim

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// refSwitch is the map-backed switch the indexed tables replaced, kept
// as the reference for the randomized equivalence test.
type refSwitch struct {
	vmToHost map[VMID]MAC
	hostVMs  map[MAC][]VMID
}

func newRefSwitch() *refSwitch {
	return &refSwitch{vmToHost: map[VMID]MAC{}, hostVMs: map[MAC][]VMID{}}
}

func (s *refSwitch) MapSuspended(mac MAC, vms []VMID) {
	list := append([]VMID(nil), vms...)
	s.hostVMs[mac] = list
	for _, vm := range list {
		s.vmToHost[vm] = mac
	}
}

func (s *refSwitch) UnmapHost(mac MAC) {
	for _, vm := range s.hostVMs[mac] {
		delete(s.vmToHost, vm)
	}
	delete(s.hostVMs, mac)
}

func (s *refSwitch) SuspendedHosts() []MAC {
	var out []MAC
	for mac := range s.hostVMs {
		out = append(out, mac)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSwitchMatchesMapReference drives the switch and the map reference
// through seeded random suspend/resume/route sequences over sparse and
// large addresses — VM lists that overlap across hosts, empty lists,
// unmaps of unknown hosts, lookups of addresses never mapped — and
// compares every exported query.
func TestSwitchMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		// A handful of sparse, partly large addresses per seed.
		macs := make([]MAC, 6)
		for i := range macs {
			macs[i] = MAC(rng.IntN(1 << (4 + rng.IntN(13))))
		}
		vms := make([]VMID, 12)
		for i := range vms {
			vms[i] = VMID(rng.IntN(1 << (4 + rng.IntN(15))))
		}
		var woken, refWoken []MAC
		s := NewSwitch(func(m MAC) { woken = append(woken, m) }, NewTable(0))
		ref := newRefSwitch()
		for step := 0; step < 300; step++ {
			mac := macs[rng.IntN(len(macs))]
			switch op := rng.IntN(10); {
			case op < 3:
				if _, dup := ref.hostVMs[mac]; dup {
					continue
				}
				list := make([]VMID, rng.IntN(4))
				for i := range list {
					list[i] = vms[rng.IntN(len(vms))]
				}
				s.MapSuspended(mac, list)
				ref.MapSuspended(mac, list)
			case op < 5:
				s.UnmapHost(mac)
				ref.UnmapHost(mac)
			default:
				vm := vms[rng.IntN(len(vms))]
				woke := s.Route(Packet{Dst: vm})
				refMAC, refWoke := ref.vmToHost[vm]
				if refWoke {
					refWoken = append(refWoken, refMAC)
				}
				if woke != refWoke {
					t.Fatalf("seed %d step %d: Route(%d) = %v, reference %v", seed, step, vm, woke, refWoke)
				}
			}
			for _, vm := range vms {
				got, ok := s.Lookup(vm)
				want, wok := ref.vmToHost[vm]
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d: Lookup(%d) = %d,%v, reference %d,%v", seed, step, vm, got, ok, want, wok)
				}
			}
			for _, m := range macs {
				got, ok := s.HostVMs(m)
				want, wok := ref.hostVMs[m]
				if ok != wok || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: HostVMs(%d) = %v,%v, reference %v,%v", seed, step, m, got, ok, want, wok)
				}
			}
			if got, want := s.SuspendedHosts(), ref.SuspendedHosts(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: SuspendedHosts = %v, reference %v", seed, step, got, want)
			}
		}
		if !reflect.DeepEqual(woken, refWoken) {
			t.Fatalf("seed %d: woke %v, reference %v", seed, woken, refWoken)
		}
		if _, ok := s.Lookup(-1); ok {
			t.Fatal("a negative address must never resolve")
		}
		if _, ok := s.HostVMs(-1); ok {
			t.Fatal("a negative MAC must never be mapped")
		}
	}
}
