package netsim

import (
	"testing"
	"testing/quick"
)

func TestRouteWakesSuspendedHost(t *testing.T) {
	var woken []MAC
	s := NewSwitch(func(m MAC) { woken = append(woken, m) })
	s.MapSuspended(7, []VMID{1, 2})
	if !s.Route(Packet{Dst: 1}) {
		t.Fatal("packet to suspended VM should trigger a wake")
	}
	if len(woken) != 1 || woken[0] != 7 {
		t.Fatalf("woken = %v", woken)
	}
	// VM on an awake host: direct forward.
	if s.Route(Packet{Dst: 99}) {
		t.Fatal("unknown VM should not wake anything")
	}
	pkts, wol, direct := s.Stats()
	if pkts != 2 || wol != 1 || direct != 1 {
		t.Fatalf("stats = %d %d %d", pkts, wol, direct)
	}
}

func TestUnmapHost(t *testing.T) {
	s := NewSwitch(func(MAC) {})
	s.MapSuspended(1, []VMID{10, 11})
	s.MapSuspended(2, []VMID{20})
	s.UnmapHost(1)
	if _, ok := s.Lookup(10); ok {
		t.Fatal("VM 10 should be unmapped")
	}
	if mac, ok := s.Lookup(20); !ok || mac != 2 {
		t.Fatal("VM 20 mapping lost")
	}
	if _, ok := s.HostVMs(1); ok {
		t.Fatal("host 1 still listed after UnmapHost")
	}
	s.UnmapHost(1) // idempotent
	hosts := s.SuspendedHosts()
	if len(hosts) != 1 || hosts[0] != 2 {
		t.Fatalf("suspended hosts = %v", hosts)
	}
}

func TestDoubleSuspendPanics(t *testing.T) {
	s := NewSwitch(func(MAC) {})
	s.MapSuspended(1, []VMID{10})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.MapSuspended(1, []VMID{11})
}

func TestNilWoLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSwitch(nil)
}

func TestMapSuspendedCopiesSlice(t *testing.T) {
	s := NewSwitch(func(MAC) {})
	vms := []VMID{1, 2}
	s.MapSuspended(5, vms)
	vms[0] = 99 // mutate caller's slice
	if _, ok := s.Lookup(1); !ok {
		t.Fatal("switch must copy the VM list")
	}
	if got, ok := s.HostVMs(5); !ok || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("HostVMs(5) = %v, %v; want the switch's copy [1 2]", got, ok)
	}
}

func TestLookupConsistencyProperty(t *testing.T) {
	// Property: after arbitrary suspend/resume interleavings every
	// mapped VM resolves to the host it was last suspended with.
	f := func(ops []uint8) bool {
		s := NewSwitch(func(MAC) {})
		suspended := map[MAC][]VMID{}
		next := VMID(0)
		for _, op := range ops {
			mac := MAC(op % 8)
			if _, isSusp := suspended[mac]; !isSusp && op < 200 {
				vms := []VMID{next, next + 1}
				next += 2
				s.MapSuspended(mac, vms)
				suspended[mac] = vms
			} else if isSusp {
				s.UnmapHost(mac)
				delete(suspended, mac)
			}
		}
		for mac, vms := range suspended {
			for _, vm := range vms {
				got, ok := s.Lookup(vm)
				if !ok || got != mac {
					return false
				}
			}
		}
		return len(s.SuspendedHosts()) == len(suspended)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoute(b *testing.B) {
	s := NewSwitch(func(MAC) {})
	for h := 0; h < 100; h++ {
		vms := make([]VMID, 10)
		for i := range vms {
			vms[i] = VMID(h*10 + i)
		}
		s.MapSuspended(MAC(h), vms)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Route(Packet{Dst: VMID(i % 2000)})
	}
}
