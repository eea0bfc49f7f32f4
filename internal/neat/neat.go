// Package neat reimplements the OpenStack Neat dynamic VM consolidation
// framework that Drowsy-DC plugs into (§III-D of the paper; Beloglazov &
// Buyya, CCPE 2015). Neat splits consolidation into four sub-problems:
//
//  1. detect underloaded hosts (evacuate them entirely so they can be
//     switched to a low-power state);
//  2. detect overloaded hosts (migrate some VMs away to restore QoS);
//  3. select which VMs to migrate off an overloaded host;
//  4. place the selected VMs on other hosts.
//
// Each sub-problem has interchangeable algorithms, mirrored here:
// overload detection by static threshold (THR), median absolute
// deviation (MAD), interquartile range (IQR) or local regression (LR);
// VM selection by minimum migration time (MMT), maximum correlation (MC)
// or deterministic random (RS); placement by power-aware best-fit
// decreasing (PABFD). Drowsy-DC reuses the detection stages unchanged
// and swaps in IP-aware selection and placement (internal/drowsy).
package neat

import (
	"fmt"
	"math"
	"sort"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
)

// Defaults used by the paper's Neat deployment.
const (
	// DefaultOverloadThreshold is the static CPU threshold of THR.
	DefaultOverloadThreshold = 0.8
	// DefaultUnderloadThreshold marks hosts whose mean CPU utilization
	// is low enough that full evacuation pays off.
	DefaultUnderloadThreshold = 0.3
	// HistoryLen is the number of past hourly utilization samples kept
	// per host for the statistical detectors.
	HistoryLen = 24 * 7
)

// ---------------------------------------------------------------------------
// Sub-problem 2: overload detection

// OverloadDetector decides whether a host is overloaded given its
// utilization history (most recent last).
type OverloadDetector interface {
	Name() string
	Overloaded(history []float64) bool
}

// THR is the static-threshold detector: overloaded when the latest
// utilization exceeds the threshold.
type THR struct{ Threshold float64 }

// Name implements OverloadDetector.
func (d THR) Name() string { return "thr" }

// Overloaded implements OverloadDetector.
func (d THR) Overloaded(history []float64) bool {
	if len(history) == 0 {
		return false
	}
	return history[len(history)-1] > d.Threshold
}

// MAD detects overload with an adaptive threshold 1 − s·MAD(history):
// the more variable the load, the more headroom is reserved.
type MAD struct{ Safety float64 }

// Name implements OverloadDetector.
func (d MAD) Name() string { return "mad" }

// Overloaded implements OverloadDetector.
func (d MAD) Overloaded(history []float64) bool {
	if len(history) < 10 {
		return THR{DefaultOverloadThreshold}.Overloaded(history)
	}
	m := median(history)
	dev := make([]float64, len(history))
	for i, v := range history {
		dev[i] = math.Abs(v - m)
	}
	thr := 1 - d.Safety*median(dev)
	if thr < 0 {
		thr = 0
	}
	return history[len(history)-1] > thr
}

// IQR detects overload with threshold 1 − s·IQR(history).
type IQR struct{ Safety float64 }

// Name implements OverloadDetector.
func (d IQR) Name() string { return "iqr" }

// Overloaded implements OverloadDetector.
func (d IQR) Overloaded(history []float64) bool {
	if len(history) < 10 {
		return THR{DefaultOverloadThreshold}.Overloaded(history)
	}
	sorted := append([]float64(nil), history...)
	sort.Float64s(sorted)
	q1 := quantileSorted(sorted, 0.25)
	q3 := quantileSorted(sorted, 0.75)
	thr := 1 - d.Safety*(q3-q1)
	if thr < 0 {
		thr = 0
	}
	return history[len(history)-1] > thr
}

// LR predicts the next utilization by local (least-squares) regression
// over the trailing window and flags overload when the prediction,
// inflated by the safety factor, exceeds 100 %.
type LR struct {
	Safety float64
	Window int
}

// Name implements OverloadDetector.
func (d LR) Name() string { return "lr" }

// Overloaded implements OverloadDetector.
func (d LR) Overloaded(history []float64) bool {
	w := d.Window
	if w == 0 {
		w = 12
	}
	if len(history) < w {
		return THR{DefaultOverloadThreshold}.Overloaded(history)
	}
	win := history[len(history)-w:]
	// Least squares y = a + b·x over x = 0..w-1, predict x = w.
	var sx, sy, sxx, sxy float64
	for i, y := range win {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(w)
	den := n*sxx - sx*sx
	if den == 0 {
		return false
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	pred := a + b*n
	return d.Safety*pred >= 1
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// ---------------------------------------------------------------------------
// Sub-problem 3: VM selection

// VMSelector orders the VMs to migrate off an overloaded host; the
// caller takes them one at a time until the host is relieved.
type VMSelector interface {
	Name() string
	// Order returns the host's VMs in eviction order.
	Order(h *cluster.Host, hr simtime.Hour) []*cluster.VM
}

// MMT selects VMs by minimum migration time: smallest memory first
// (migration time is memory over bandwidth).
type MMT struct{}

// Name implements VMSelector.
func (MMT) Name() string { return "mmt" }

// Order implements VMSelector.
func (MMT) Order(h *cluster.Host, _ simtime.Hour) []*cluster.VM {
	out := append([]*cluster.VM(nil), h.VMs()...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MemGB != out[j].MemGB {
			return out[i].MemGB < out[j].MemGB
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RS selects VMs in a deterministic pseudo-random order seeded per
// (host, hour), mirroring Neat's random-selection policy while keeping
// simulations replayable.
type RS struct{ Seed uint64 }

// Name implements VMSelector.
func (RS) Name() string { return "rs" }

// Order implements VMSelector.
func (s RS) Order(h *cluster.Host, hr simtime.Hour) []*cluster.VM {
	out := append([]*cluster.VM(nil), h.VMs()...)
	x := s.Seed ^ uint64(h.ID)<<32 ^ uint64(hr)
	for i := len(out) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// MC selects the VM with the maximum correlation of its recent activity
// with the host's aggregate: removing the most-correlated VM relieves
// load spikes best.
type MC struct{ Window int }

// Name implements VMSelector.
func (MC) Name() string { return "mc" }

// Order implements VMSelector.
func (s MC) Order(h *cluster.Host, hr simtime.Hour) []*cluster.VM {
	w := s.Window
	if w == 0 {
		w = 24
	}
	vms := h.VMs()
	if len(vms) <= 1 || hr == 0 {
		return append([]*cluster.VM(nil), vms...)
	}
	start := hr - simtime.Hour(w)
	if start < 0 {
		start = 0
	}
	n := int(hr - start)
	total := make([]float64, n)
	series := make([][]float64, len(vms))
	for vi, v := range vms {
		series[vi] = make([]float64, n)
		for i := 0; i < n; i++ {
			a := v.Activity(start + simtime.Hour(i))
			series[vi][i] = a
			total[i] += a
		}
	}
	type scored struct {
		vm  *cluster.VM
		cor float64
	}
	out := make([]scored, len(vms))
	for vi, v := range vms {
		rest := make([]float64, n)
		for i := range rest {
			rest[i] = total[i] - series[vi][i]
		}
		out[vi] = scored{v, correlation(series[vi], rest)}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].cor != out[j].cor {
			return out[i].cor > out[j].cor
		}
		return out[i].vm.ID < out[j].vm.ID
	})
	res := make([]*cluster.VM, len(out))
	for i, s := range out {
		res[i] = s.vm
	}
	return res
}

func correlation(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// ---------------------------------------------------------------------------
// The composed policy

// Options configures a Neat policy instance.
type Options struct {
	Overload  OverloadDetector
	Selector  VMSelector
	Underload float64 // mean-utilization threshold for evacuation
	// OverloadThr is the utilization budget used by PABFD.
	OverloadThr float64
}

func (o Options) withDefaults() Options {
	if o.Overload == nil {
		o.Overload = THR{DefaultOverloadThreshold}
	}
	if o.Selector == nil {
		o.Selector = MMT{}
	}
	if o.Underload == 0 {
		o.Underload = DefaultUnderloadThreshold
	}
	if o.OverloadThr == 0 {
		o.OverloadThr = DefaultOverloadThreshold
	}
	return o
}

// Policy is the Neat consolidation policy.
type Policy struct {
	opts Options
	// history maps a host ID to its hourly utilization samples, oldest
	// first; the detectors see only the last HistoryLen (History).
	history map[int][]float64
	// util is the utilization table PABFD reads, indexed by Host.Pos:
	// util[i] is Hosts()[i].Utilization(hr) at the hour being placed.
	// PlaceNew and Rebalance fill it, and a round recomputes both
	// endpoints of every migration, so it always equals what the live
	// hosts would read. order is scratch for the underload sort.
	util  []float64
	order []int32
}

// New creates a Neat policy.
func New(opts Options) *Policy {
	return &Policy{opts: opts.withDefaults(), history: make(map[int][]float64)}
}

// Name implements cluster.Policy.
func (p *Policy) Name() string { return "neat" }

// IdlenessBlind implements cluster.IdlenessBlind: Neat decides from
// host utilization alone.
func (p *Policy) IdlenessBlind() {}

// Options returns the effective options.
func (p *Policy) Options() Options { return p.opts }

// PlaceNew implements cluster.Policy using PABFD.
func (p *Policy) PlaceNew(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour) (*cluster.Host, error) {
	p.fillUtil(c, hr)
	if h := p.pabfd(c, v, hr, true); h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("neat: no host can fit VM %s", v.Name)
}

// fillUtil computes every host's utilization at hr into the table.
func (p *Policy) fillUtil(c *cluster.Cluster, hr simtime.Hour) {
	p.util = p.util[:0]
	for _, h := range c.Hosts() {
		p.util = append(p.util, h.Utilization(hr))
	}
}

// pabfd is power-aware best-fit decreasing (PABFD), Neat's placement
// step: it returns the host, other than v's own, whose power draw
// increases least when it takes v, or nil when none can. With
// identical linear power models the increase is identical everywhere,
// so — exactly like the reference implementation — the decision
// degenerates to best-fit: the feasible host with the highest current
// utilization that stays within the overload threshold, packing VMs
// onto as few hosts as possible. When nothing stays within it and relax
// is set, any host with room will do: refusing placement strands the
// VM. Utilizations come from the table, so it must be filled at hr.
func (p *Policy) pabfd(c *cluster.Cluster, v *cluster.VM, hr simtime.Hour, relax bool) *cluster.Host {
	var best *cluster.Host
	bestUtil := -1.0
	demand := v.Activity(hr) * float64(v.VCPUs)
	hosts := c.Hosts()
	for i, h := range hosts {
		if h == v.Host() || !h.CanHost(v) {
			continue
		}
		util := p.util[i]
		if util+demand/float64(h.VCPUs) > p.opts.OverloadThr {
			continue
		}
		if util > bestUtil {
			bestUtil = util
			best = h
		}
	}
	if best == nil && relax {
		for i, h := range hosts {
			if h != v.Host() && h.CanHost(v) {
				if best == nil || p.util[i] > bestUtil {
					best = h
					bestUtil = p.util[i]
				}
			}
		}
	}
	return best
}

// RecordHour implements cluster.HourRecorder: it appends every host's
// utilization for the completed hour, util[h.Pos()], to its history;
// the statistical detectors feed on it. The simulation runtime calls
// it at each hour boundary.
//
// Each host's samples fill a backing array of 2×HistoryLen, and the
// window slides forward through it. When the array is full, the newest
// HistoryLen−1 samples move to its front: a sample is copied about once
// during its stay in the window rather than on every hour, and the
// array is allocated once per host, not once per window.
func (p *Policy) RecordHour(c *cluster.Cluster, hr simtime.Hour, util []float64) {
	for _, h := range c.Hosts() {
		buf := p.history[h.ID]
		if len(buf) == cap(buf) {
			keep := buf[max(0, len(buf)-HistoryLen+1):]
			if cap(buf) < 2*HistoryLen {
				buf = make([]float64, 0, 2*HistoryLen)
			}
			buf = buf[:copy(buf[:len(keep)], keep)]
		}
		p.history[h.ID] = append(buf, util[h.Pos()])
	}
}

// History exposes a host's utilization history: its last HistoryLen
// samples at most, most recent last (for Drowsy-DC, which reuses Neat's
// detection stages). The slice shares the policy's buffer, so it is
// valid only until the next RecordHour.
func (p *Policy) History(hostID int) []float64 {
	buf := p.history[hostID]
	return buf[max(0, len(buf)-HistoryLen):]
}

// Rebalance implements cluster.Policy: the four Neat steps. Every
// utilization the round reads comes from the table, filled once here
// and recomputed at both endpoints of each migration (migrate).
func (p *Policy) Rebalance(c *cluster.Cluster, hr simtime.Hour) {
	p.fillUtil(c, hr)
	hosts := c.Hosts()
	// Step 2+3+4: relieve overloaded hosts.
	for i, h := range hosts {
		if !p.opts.Overload.Overloaded(p.History(h.ID)) {
			continue
		}
		for _, v := range p.opts.Selector.Order(h, hr) {
			if p.util[i] <= p.opts.OverloadThr {
				break
			}
			dst := p.pabfd(c, v, hr, true)
			if dst == nil {
				break // nowhere to go; keep remaining VMs
			}
			_ = p.migrate(c, v, dst, hr)
		}
	}
	// Step 1+4: evacuate underloaded hosts (smallest first so freed
	// capacity concentrates). The order is the stable sort of the hosts
	// by their utilization after step 2.
	p.order = p.order[:0]
	for i := range hosts {
		p.order = append(p.order, int32(i))
	}
	sort.SliceStable(p.order, func(a, b int) bool { return p.util[p.order[a]] < p.util[p.order[b]] })
	for _, i := range p.order {
		h := hosts[i]
		if h.NumVMs() == 0 {
			continue
		}
		if p.util[i] >= p.opts.Underload {
			continue
		}
		// Migrate the VMs one at a time, biggest first, and stop at the
		// first that has no destination: a host can end up only partly
		// evacuated.
		for _, v := range cluster.SortVMsByMemDesc(h.VMs()) {
			dst := p.pabfd(c, v, hr, false)
			if dst == nil {
				break
			}
			if err := p.migrate(c, v, dst, hr); err != nil {
				break
			}
		}
	}
}

// migrate live-migrates v to dst and recomputes the utilization of both
// endpoints in the table.
func (p *Policy) migrate(c *cluster.Cluster, v *cluster.VM, dst *cluster.Host, hr simtime.Hour) error {
	src := v.Host()
	err := c.Migrate(v, dst)
	p.util[src.Pos()] = src.Utilization(hr)
	p.util[dst.Pos()] = dst.Utilization(hr)
	return err
}
