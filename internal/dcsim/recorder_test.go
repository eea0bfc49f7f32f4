package dcsim

import (
	"fmt"
	"math"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/neat"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// utilRecorder is Neat with a RecordHour that first checks the table
// the runtime hands over: every host's entry must be Host.Utilization's
// own result, bit for bit. It counts the entries above 1 (which a
// clamped store would cut) and the hosts found empty after carrying
// load (which a skipped store would leave stale).
type utilRecorder struct {
	*neat.Policy
	t             *testing.T
	label         string
	hours         int
	over, emptied int
	prev          []float64
}

func (p *utilRecorder) RecordHour(c *cluster.Cluster, hr simtime.Hour, util []float64) {
	if len(util) != len(c.Hosts()) {
		p.t.Fatalf("%s: hour %d: table of %d entries for %d hosts", p.label, hr, len(util), len(c.Hosts()))
	}
	if p.prev == nil {
		p.prev = make([]float64, len(util))
	}
	for _, h := range c.Hosts() {
		got, want := util[h.Pos()], h.Utilization(hr)
		if math.Float64bits(got) != math.Float64bits(want) {
			p.t.Fatalf("%s: hour %d host %d (%d VMs): handed %v, Host.Utilization %v",
				p.label, hr, h.ID, h.NumVMs(), got, want)
		}
		if got > 1 {
			p.over++
		}
		if h.NumVMs() == 0 && p.prev[h.Pos()] > 0 {
			p.emptied++
		}
	}
	copy(p.prev, util)
	p.hours++
	p.Policy.RecordHour(c, hr, util)
}

// recorderFleet builds hosts of three slots on four vCPUs: every third
// host starts with three mostly-used VMs, enough demand to exceed the
// host's capacity, and the rest hold light tenants Neat evacuates.
func recorderFleet() (*cluster.Cluster, []*cluster.VM) {
	c := cluster.New()
	for i := 0; i < 12; i++ {
		c.AddHost(cluster.NewHost(i, fmt.Sprintf("H%d", i), 16, 4, 3))
	}
	id := 0
	add := func(h *cluster.Host, kind cluster.Kind, g trace.Generator) *cluster.VM {
		v := cluster.NewVM(id, fmt.Sprintf("v%d", id), kind, 4, 2, g)
		id++
		c.AddVM(v)
		if h != nil {
			_ = c.Place(v, h)
		}
		return v
	}
	for i, h := range c.Hosts() {
		switch i % 3 {
		case 0:
			for k := 0; k < 3; k++ {
				add(h, cluster.KindLLMU, trace.LLMU(uint64(10*i+k)))
			}
		case 1:
			add(h, cluster.KindLLMI, trace.RealTrace(1+i%5))
		default:
			add(h, cluster.KindLLMI, trace.DailyBackup(0.4))
			add(h, cluster.KindLLMI, trace.RealTrace(1+(i+2)%5))
		}
	}
	var arrivals []*cluster.VM
	for k := 0; k < 3; k++ {
		arrivals = append(arrivals, cluster.NewVM(1000+k, fmt.Sprintf("n%d", k), cluster.KindLLMU, 4, 2, trace.LLMU(uint64(99+k))))
	}
	return c, arrivals
}

// TestRecordHourGetsHostUtilization is the tripwire for the handed-over
// table: at hourly and event resolution, serial and sharded, with
// arrivals and departures, every hour's util[h.Pos()] equals
// h.Utilization(hr) bit for bit. ResumeRunner's replay of the
// recorder's last call depends on it: it recomputes the table with
// Host.Utilization. The fleet must overload some host and empty a
// loaded one, or the check would miss a clamped or skipped store.
func TestRecordHourGetsHostUtilization(t *testing.T) {
	for _, res := range []Resolution{ResolutionHourly, ResolutionEvent} {
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s/workers-%d", res, workers)
			t.Run(label, func(t *testing.T) {
				c, arrivals := recorderFleet()
				cfg := Config{
					Hours:          7 * 24,
					EnableSuspend:  true,
					Resolution:     res,
					ShardWorkers:   workers,
					ShardHostSpan:  2,
					RebalanceEvery: 8,
					Arrivals: []Arrival{
						{At: 30, VM: arrivals[0]}, {At: 30, VM: arrivals[1]}, {At: 75, VM: arrivals[2]},
					},
					Departures: []Departure{
						{At: 50, VM: c.VMs()[0]}, {At: 50, VM: c.VMs()[4]},
						{At: 100, VM: arrivals[1]}, {At: 100, VM: c.VMs()[1]},
					},
				}
				p := &utilRecorder{Policy: neat.New(), t: t, label: label}
				NewRunner(cfg, c, p).Run()
				if p.hours != cfg.Hours {
					t.Fatalf("recorder ran %d hours, want %d", p.hours, cfg.Hours)
				}
				if p.over == 0 || p.emptied == 0 {
					t.Fatalf("fleet too tame: %d overloaded host-hours, %d hosts emptied after load", p.over, p.emptied)
				}
				t.Logf("%d overloaded host-hours, %d hosts emptied after load", p.over, p.emptied)
			})
		}
	}
}
