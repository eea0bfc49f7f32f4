package oasis

import (
	"fmt"
	"math/rand"
	"testing"

	"drowsydc/internal/cluster"
	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// The correctness backbone of the fleet-scale rebuild: the indexed,
// bound-pruned selection must be indistinguishable from the exhaustive
// reference in every observable — placements, migration counts,
// per-round order of operations — across randomized traces, windows,
// thresholds, margins, placements (including unplaced VMs, which
// disable the margin floor) and call patterns (hourly RecordHour
// maintenance, lazy catch-up over gaps wider than the window, repeated
// and non-monotone rebalance hours).

// genFor picks a structurally diverse generator for VM i.
func genFor(rng *rand.Rand, i int) trace.Generator {
	switch rng.Intn(6) {
	case 0:
		return trace.DailyBackup(0.3 + rng.Float64()*0.6)
	case 1:
		return trace.LLMU(uint64(1000 + i))
	case 2:
		return trace.ComicStrips(0.5)
	default:
		return trace.Variant(trace.RealTrace(1+rng.Intn(5)), uint64(77+i), rng.Intn(48))
	}
}

// twinClusters builds two structurally identical clusters: same hosts,
// same VMs (IDs, capacities, generators), same placement. Generators
// are pure, so the twins' activity signals are bit-identical.
func twinClusters(rng *rand.Rand, nHosts, slots, nVMs int, placeAll bool) (a, b *cluster.Cluster) {
	a, b = cluster.New(), cluster.New()
	for i := 0; i < nHosts; i++ {
		a.AddHost(cluster.NewHost(i, fmt.Sprintf("h%d", i), 64, 16, slots))
		b.AddHost(cluster.NewHost(i, fmt.Sprintf("h%d", i), 64, 16, slots))
	}
	for i := 0; i < nVMs; i++ {
		g := genFor(rng, i)
		va := cluster.NewVM(i, fmt.Sprintf("v%d", i), cluster.KindLLMI, 4, 2, g)
		vb := cluster.NewVM(i, fmt.Sprintf("v%d", i), cluster.KindLLMI, 4, 2, g)
		a.AddVM(va)
		b.AddVM(vb)
		// Adversarial placement: round-robin across hosts, mixing
		// idle-compatible and incompatible VMs so the greedy matching
		// genuinely migrates. Occasionally leave a VM unplaced, which
		// disables the sticky-margin pruning floor.
		if placeAll || rng.Intn(8) != 0 {
			h := rng.Intn(nHosts)
			for j := 0; j < nHosts; j++ {
				hi := (h + j) % nHosts
				if a.Hosts()[hi].CanHost(va) {
					_ = a.Place(va, a.Hosts()[hi])
					_ = b.Place(vb, b.Hosts()[hi])
					break
				}
			}
		}
	}
	return a, b
}

func sameState(t *testing.T, tag string, a, b *cluster.Cluster) {
	t.Helper()
	av, bv := a.Assignments(), b.Assignments()
	if len(av) != len(bv) {
		t.Fatalf("%s: %d vs %d VMs", tag, len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("%s: VM %d on host %d (indexed) vs %d (exhaustive)", tag, i, av[i], bv[i])
		}
	}
	if a.Migrations() != b.Migrations() {
		t.Fatalf("%s: %d migrations (indexed) vs %d (exhaustive)", tag, a.Migrations(), b.Migrations())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// TestIndexedMatchesExhaustive is the randomized old-vs-new bit-identity
// property: across many configurations and rebalance call patterns, the
// indexed selection and the exhaustive reference produce identical
// placements and migration counts at every step.
func TestIndexedMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0a515))
	totalMigrations := 0
	for trial := 0; trial < 30; trial++ {
		opts := Options{
			Window:        8 + rng.Intn(250),
			IdleThreshold: 0.005 + rng.Float64()*0.3,
			StickyMargin:  0.01 + rng.Float64()*0.2,
		}
		nHosts := 3 + rng.Intn(8)
		slots := 2 + rng.Intn(4)
		nVMs := 2 + rng.Intn(nHosts*slots-1)
		a, b := twinClusters(rng, nHosts, slots, nVMs, trial%3 != 0)

		indexed := New(opts)
		exOpts := opts
		exOpts.Exhaustive = true
		exhaustive := New(exOpts)

		hr := simtime.Hour(rng.Intn(100))
		for round := 0; round < 6; round++ {
			switch rng.Intn(4) {
			case 0:
				// Hourly maintenance between rounds (the RecordHour
				// hook), then a close-by rebalance.
				for step := 0; step < 1+rng.Intn(5); step++ {
					hr++
					indexed.RecordHour(a, hr-1, nil)
					exhaustive.RecordHour(b, hr-1, nil)
				}
			case 1:
				// A gap wider than the window: the lazy path must
				// rebuild wholesale.
				hr += simtime.Hour(opts.Window + rng.Intn(100))
			case 2:
				// Same hour again (idempotence).
			default:
				hr += simtime.Hour(1 + rng.Intn(12))
			}
			indexed.Rebalance(a, hr)
			exhaustive.Rebalance(b, hr)
			sameState(t, fmt.Sprintf("trial %d round %d hr %d", trial, round, hr), a, b)
		}
		totalMigrations += a.Migrations()
	}
	if totalMigrations == 0 {
		t.Fatal("no trial migrated any VM; the equivalence property is vacuous")
	}
}

// TestIndexedMatchesExhaustiveUnderChurn adds and removes VMs between
// rounds: the index must backfill arrivals' trailing windows and prune
// departed entries without drifting from the reference.
func TestIndexedMatchesExhaustiveUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc40))
	opts := Options{Window: 48}
	a, b := twinClusters(rng, 6, 4, 12, true)
	indexed := New(opts)
	exOpts := opts
	exOpts.Exhaustive = true
	exhaustive := New(exOpts)

	nextID := 100
	hr := simtime.Hour(60)
	for round := 0; round < 8; round++ {
		if round%2 == 0 {
			g := genFor(rng, nextID)
			va := cluster.NewVM(nextID, fmt.Sprintf("n%d", nextID), cluster.KindLLMI, 4, 2, g)
			vb := cluster.NewVM(nextID, fmt.Sprintf("n%d", nextID), cluster.KindLLMI, 4, 2, g)
			nextID++
			a.AddVM(va)
			b.AddVM(vb)
			ha, _ := indexed.PlaceNew(a, va, hr)
			hb, _ := exhaustive.PlaceNew(b, vb, hr)
			if ha.ID != hb.ID {
				t.Fatalf("round %d: PlaceNew chose host %d vs %d", round, ha.ID, hb.ID)
			}
			_ = a.Place(va, ha)
			_ = b.Place(vb, hb)
		} else if n := len(a.VMs()); n > 4 {
			vi := rng.Intn(n)
			a.Remove(a.VMs()[vi])
			b.Remove(b.VMs()[vi])
		}
		indexed.RecordHour(a, hr, nil)
		exhaustive.RecordHour(b, hr, nil)
		hr += simtime.Hour(1 + rng.Intn(24))
		indexed.Rebalance(a, hr)
		exhaustive.Rebalance(b, hr)
		sameState(t, fmt.Sprintf("churn round %d hr %d", round, hr), a, b)
	}
	// Departed VMs must not linger in the index.
	if got, want := len(indexed.idx.entries), len(a.VMs()); got != want {
		t.Fatalf("index holds %d entries for %d VMs", got, want)
	}
}

// TestBoundAdmissible is the pruning-math property: the popcount bound
// min(pop(a), pop(b)) never undercuts a pair's true both-idle count, so
// no pair the exhaustive scan would have accepted can be pruned — and
// the ring-index count itself equals the direct window walk's.
func TestBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(0xad715))
	for trial := 0; trial < 40; trial++ {
		opts := Options{
			Window:        4 + rng.Intn(300),
			IdleThreshold: 0.005 + rng.Float64()*0.4,
		}
		p := New(opts)
		nVMs := 2 + rng.Intn(10)
		vms := make([]*cluster.VM, nVMs)
		for i := range vms {
			vms[i] = cluster.NewVM(i, fmt.Sprintf("v%d", i), cluster.KindLLMI, 4, 2, genFor(rng, i))
		}
		hr := simtime.Hour(rng.Intn(2 * opts.Window))
		ix := p.index()
		entries := make([]*idleEntry, nVMs)
		for i, v := range vms {
			entries[i] = ix.entry(v)
			ix.advance(v, entries[i], hr)
		}
		start := hr - simtime.Hour(opts.Window)
		if start < 0 {
			start = 0
		}
		win := int(hr - start)
		for i := 0; i < nVMs; i++ {
			// The ring popcount equals the direct count of idle hours.
			direct := 0
			for h := start; h < hr; h++ {
				if vms[i].Activity(h) < opts.IdleThreshold {
					direct++
				}
			}
			if entries[i].pop != direct {
				t.Fatalf("trial %d: VM %d ring pop %d, direct %d (win %d)",
					trial, i, entries[i].pop, direct, win)
			}
			for j := i + 1; j < nVMs; j++ {
				both := andPop(entries[i].bits, entries[j].bits)
				bound := entries[i].pop
				if entries[j].pop < bound {
					bound = entries[j].pop
				}
				if both > bound {
					t.Fatalf("trial %d: pair (%d,%d) overlap %d exceeds bound %d: inadmissible",
						trial, i, j, both, bound)
				}
				// And the ring AND equals the walked overlap.
				walked := 0
				for h := start; h < hr; h++ {
					if vms[i].Activity(h) < opts.IdleThreshold &&
						vms[j].Activity(h) < opts.IdleThreshold {
						walked++
					}
				}
				if both != walked {
					t.Fatalf("trial %d: pair (%d,%d) ring overlap %d, walked %d",
						trial, i, j, both, walked)
				}
			}
		}
	}
}

// TestIncrementalMatchesRebuild drives one entry hour by hour and a
// second by a single jump to the same hour: rings, popcounts and
// built-to marks must agree (the ring-write protocol drops exactly the
// hour leaving the window).
func TestIncrementalMatchesRebuild(t *testing.T) {
	v1 := cluster.NewVM(0, "a", cluster.KindLLMI, 4, 2, trace.RealTrace(1))
	v2 := cluster.NewVM(0, "a", cluster.KindLLMI, 4, 2, trace.RealTrace(1))
	p := New(Options{Window: 100})
	ix := p.index()
	e1, e2 := ix.entry(v1), ix.entry(v2)
	const target = 777
	for h := simtime.Hour(1); h <= target; h++ {
		ix.advance(v1, e1, h)
	}
	ix.advance(v2, e2, target)
	if e1.pop != e2.pop || e1.builtTo != e2.builtTo {
		t.Fatalf("incremental pop %d builtTo %d vs rebuild pop %d builtTo %d",
			e1.pop, e1.builtTo, e2.pop, e2.builtTo)
	}
	for w := range e1.bits {
		if e1.bits[w] != e2.bits[w] {
			t.Fatalf("ring word %d differs: %x vs %x", w, e1.bits[w], e2.bits[w])
		}
	}
}

// TestPairEvaluationSplit checks the §VII metric contract: the selection
// still considers all n(n-1)/2 pairs (scored + pruned), and at fleet
// shape the pruned share is substantial — the quadratic structure is
// observable without being paid in full.
func TestPairEvaluationSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(0x59117))
	n := 64
	a, _ := twinClusters(rng, 16, 4, n, true)
	p := New(Options{Window: 7 * 24})
	p.Rebalance(a, 20*24)
	if got, want := p.PairEvaluations(), uint64(n*(n-1)/2); got < want {
		t.Fatalf("pair evaluations %d < n(n-1)/2 = %d: quadratic metric lost", got, want)
	}
	if p.ScoredPairs()+p.PrunedPairs() != p.PairEvaluations() {
		t.Fatalf("scored %d + pruned %d != evaluations %d",
			p.ScoredPairs(), p.PrunedPairs(), p.PairEvaluations())
	}
	if p.PrunedPairs() == 0 {
		t.Fatal("no pair pruned on a mixed population; the bound is dead")
	}
}
