// Package netsim models the network elements Drowsy-DC's waking path
// depends on (§V-A of the paper): a software-defined-network switch that
// sees every inbound request, a hashmap from VM addresses to the MAC
// addresses of the suspended servers hosting them, and Wake-on-LAN
// delivery. The physical testbed keeps the NIC powered in S3 (Intel I350
// + BMC link in the paper's references); here WoL delivery is a callback
// into the cluster model.
package netsim

import (
	"fmt"
	"sort"
)

// VMID addresses a VM (the paper keys the hashmap by VM IP address).
type VMID int

// MAC addresses a host NIC for Wake-on-LAN.
type MAC int

// Packet is an inbound request observed by the SDN switch.
type Packet struct {
	Dst VMID
}

// Switch is the SDN switch's view of suspended placements: a hashmap
// from VM address to suspended-host MAC, maintained only while hosts are
// suspended (the paper's footnote: "the VM to host mappings are only
// updated when a host is suspended"). Route is the lightweight packet
// analyzer: O(1) per packet.
type Switch struct {
	vmToHost map[VMID]MAC
	hostVMs  map[MAC][]VMID
	wol      func(MAC)

	packets uint64
	wolSent uint64
	misses  uint64 // packets for VMs on awake hosts (forwarded directly)
}

// NewSwitch creates a switch that calls wol to deliver a Wake-on-LAN
// packet to a suspended host.
func NewSwitch(wol func(MAC)) *Switch {
	if wol == nil {
		panic("netsim: nil WoL callback")
	}
	return &Switch{
		vmToHost: make(map[VMID]MAC),
		hostVMs:  make(map[MAC][]VMID),
		wol:      wol,
	}
}

// MapSuspended records that host mac was suspended while hosting vms.
func (s *Switch) MapSuspended(mac MAC, vms []VMID) {
	if _, dup := s.hostVMs[mac]; dup {
		panic(fmt.Sprintf("netsim: host %d suspended twice without resume", mac))
	}
	list := append([]VMID(nil), vms...)
	s.hostVMs[mac] = list
	for _, vm := range list {
		s.vmToHost[vm] = mac
	}
}

// UnmapHost removes the mappings of a resumed host. Unknown hosts are a
// no-op: a WoL may race with an already-initiated resume.
func (s *Switch) UnmapHost(mac MAC) {
	for _, vm := range s.hostVMs[mac] {
		delete(s.vmToHost, vm)
	}
	delete(s.hostVMs, mac)
}

// HostVMs returns the VM list of suspended host mac and whether it is
// mapped. MapSuspended copied the list in and nothing mutates it after,
// so callers may keep it but must not modify it.
func (s *Switch) HostVMs(mac MAC) ([]VMID, bool) {
	vms, ok := s.hostVMs[mac]
	return vms, ok
}

// Lookup returns the suspended host of a VM, if any.
func (s *Switch) Lookup(vm VMID) (MAC, bool) {
	mac, ok := s.vmToHost[vm]
	return mac, ok
}

// SuspendedHosts returns the MACs with live mappings, sorted.
func (s *Switch) SuspendedHosts() []MAC {
	out := make([]MAC, 0, len(s.hostVMs))
	for mac := range s.hostVMs {
		out = append(out, mac)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Route processes one inbound packet. If the destination VM lives on a
// suspended host, a WoL packet is sent first (the packet itself is then
// held by the fabric until the host resumes — latency accounting is the
// workload model's concern). It reports whether a wake was triggered.
func (s *Switch) Route(p Packet) bool {
	s.packets++
	mac, ok := s.vmToHost[p.Dst]
	if !ok {
		s.misses++
		return false
	}
	s.wolSent++
	s.wol(mac)
	return true
}

// Stats returns (packets seen, WoL sent, direct forwards).
func (s *Switch) Stats() (packets, wol, direct uint64) {
	return s.packets, s.wolSent, s.misses
}
