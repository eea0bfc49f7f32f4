package trace

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/timeline"
)

// The memo contract: every read equals direct evaluation, bit for bit,
// whatever the memo's state, sharing or overlay. testHours holds hour
// −1 (negative hours evaluate directly, panic included), every hour of
// the first three chunks, and hours past year 3, which a chunk table
// only reaches by growing.
var testHours = func() []simtime.Hour {
	var hs []simtime.Hour
	for h := simtime.Hour(-1); h < 3*chunkLen; h++ {
		hs = append(hs, h)
	}
	for h := simtime.Hour(3 * simtime.HoursPerYear); h < 3*simtime.HoursPerYear+3*chunkLen; h += 5 {
		hs = append(hs, h)
	}
	return hs
}()

// outcome evaluates f at h, turning a panic into its recovered value.
func outcome[T any](f func(simtime.Hour) T, h simtime.Hour) (v T, panicked any) {
	defer func() { panicked = recover() }()
	return f(h), nil
}

// exact reports the first hour of hs where read and direct disagree:
// float levels must match bit for bit, timelines element for element,
// and a direct evaluation that panics must panic through read too.
func exact[T any](read, direct func(simtime.Hour) T, hs []simtime.Hour) error {
	for _, h := range hs {
		got, gotPanic := outcome(read, h)
		want, wantPanic := outcome(direct, h)
		same := reflect.DeepEqual(got, want)
		if g, ok := any(got).(float64); ok {
			same = math.Float64bits(g) == math.Float64bits(any(want).(float64))
		}
		if !same || (gotPanic == nil) != (wantPanic == nil) {
			return fmt.Errorf("hour %d: read %v (panic %v), direct %v (panic %v)",
				h, got, gotPanic, want, wantPanic)
		}
	}
	return nil
}

// saturatingGen's raw levels sit at and beyond both clamp boundaries
// as well as inside them: base hours at 0, at 1 and interior, the
// shapes whose clamped memo value the overlay must handle.
func saturatingGen() Generator {
	return Generator{
		Name: "saturating",
		Fn: func(st simtime.Stamp) float64 {
			switch st.HourOfDay % 6 {
			case 0:
				return 1.7 // clamps to 1; jitter may pull it back under
			case 1:
				return -0.3 // clamps to 0 either way
			case 2:
				return math.Copysign(0, -1) // −0 survives the clamp; Jitter returns +0
			case 3:
				return 1
			case 4:
				return 0.42
			default:
				return float64(st.HourOfDay) / 30
			}
		},
	}
}

func memoGens() []Generator { return append(TableII(), saturatingGen()) }

// TestCachedMatchesUncached checks private memos, bare and behind a
// zero-overlay source, against direct evaluation.
func TestCachedMatchesUncached(t *testing.T) {
	for _, g := range memoGens() {
		src := NewSource(g)
		for name, read := range map[string]func(simtime.Hour) float64{
			"memo":   newMemo(g.Activity).At,
			"source": src.Activity,
		} {
			for pass := 0; pass < 2; pass++ { // the second pass reads published chunks
				if err := exact(read, g.Activity, testHours); err != nil {
					t.Fatalf("%s %s pass %d: %v", g.Name, name, pass, err)
				}
			}
		}
	}
}

// TestVariantMemoBitIdenticalToPrivate checks member overlays against
// direct evaluation of the member's variant generator. Every overlay of
// a base reads the same base memo, so later rows read chunks earlier
// rows published.
func TestVariantMemoBitIdenticalToPrivate(t *testing.T) {
	shifts := []int{0, 13, 7*24 + 29} // the last wraps more than a week
	amounts := []float64{0, VariantJitterAmount, 0.2}
	for _, g := range []Generator{saturatingGen(), RealTrace(1), DailyBackup(0.6)} {
		base := NewSource(g)
		for _, shift := range shifts {
			for _, amount := range amounts {
				seed := uint64(0xd0 + shift)
				src := base.Variant(seed, shift, amount)
				if err := exact(src.Activity, VariantJitter(g, seed, shift, amount).Activity, testHours); err != nil {
					t.Fatalf("%s shift %d jitter %v: %v", g.Name, shift, amount, err)
				}
			}
		}
	}
}

// TestTimelineMemoMatchesDirect checks burst-timeline memos, over a
// private source and over a member overlay, against timeline.Expand of
// the directly evaluated level, read by value (At) and by reference
// (Ref), which points into the published chunk.
func TestTimelineMemoMatchesDirect(t *testing.T) {
	g := RealTrace(1)
	base := NewSource(g)
	for _, tc := range []struct {
		name   string
		src    Source
		direct Generator
	}{
		{"private", base, g},
		{"overlay", base.Variant(7, 13, 0.2), VariantJitter(g, 7, 13, 0.2)},
		{"mostly-idle", NewSource(DailyBackup(0.6)), DailyBackup(0.6)},
	} {
		const seed = 0x5eed
		m := NewTimelines(seed, tc.src)
		if m.Seed() != seed {
			t.Fatalf("%s: memo seed %#x, want %#x", tc.name, m.Seed(), seed)
		}
		direct := func(h simtime.Hour) timeline.Hour {
			return timeline.Expand(seed, h, tc.direct.Activity(h))
		}
		ref := func(h simtime.Hour) timeline.Hour { return *m.Ref(h) }
		for name, read := range map[string]func(simtime.Hour) timeline.Hour{"At": m.At, "Ref": ref} {
			if err := exact(read, direct, testHours); err != nil {
				t.Fatalf("%s %s: %v", tc.name, name, err)
			}
		}
		if m.Ref(100) != m.Ref(100) {
			t.Fatalf("%s: two reads of one hour point at different values", tc.name)
		}
	}
}

// TestSharedConcurrentReaders reads shared memos from 8 goroutines at
// once, each starting in a different chunk so that every chunk sees
// first-touch races; under -race this doubles as the publication
// protocol's race check.
func TestSharedConcurrentReaders(t *testing.T) {
	g := ComicStrips(0.5)
	base := NewSource(g)
	member := base.Variant(3, 13, 0.2)
	timelines := NewTimelines(9, member)
	variant := VariantJitter(g, 3, 13, 0.2)
	for _, tc := range []struct {
		name  string
		check func(hs []simtime.Hour) error
	}{
		{"activity", func(hs []simtime.Hour) error { return exact(base.base.At, g.Activity, hs) }},
		{"overlay", func(hs []simtime.Hour) error { return exact(member.Activity, variant.Activity, hs) }},
		{"timelines", func(hs []simtime.Hour) error {
			return exact(timelines.At, func(h simtime.Hour) timeline.Hour {
				return timeline.Expand(9, h, variant.Activity(h))
			}, hs)
		}},
	} {
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				start := 1 + r*chunkLen/2
				hs := append(append([]simtime.Hour(nil), testHours[start:]...), testHours[:start]...)
				if err := tc.check(hs); err != nil {
					t.Errorf("%s reader %d: %v", tc.name, r, err)
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestCachedOutOfOrderAccess reads a memo sparsely and out of order
// (the shape of timer scans and trailing policy windows): every read is
// exact, a single goroutine fills each touched chunk exactly once, and
// each fill is one publication.
func TestCachedOutOfOrderAccess(t *testing.T) {
	g := RealTrace(3)
	fills := 0
	m := newMemo(func(h simtime.Hour) float64 { fills++; return g.Activity(h) })
	hours := []simtime.Hour{8759, 0, 4000, 1, 8760 * 2, chunkLen + 1, chunkLen - 1, chunkLen, 4000, 8759}
	chunks := map[simtime.Hour]bool{}
	before := PublishCount()
	for pass := 0; pass < 2; pass++ {
		if err := exact(m.At, g.Activity, hours); err != nil {
			t.Fatal(err)
		}
		for _, h := range hours {
			chunks[h/chunkLen] = true
		}
		if want := len(chunks) * chunkLen; fills != want {
			t.Fatalf("pass %d: %d fills for %d chunks, want %d", pass, fills, len(chunks), want)
		}
	}
	if got := PublishCount() - before; got != uint64(len(chunks)) {
		t.Fatalf("%d publications for %d chunks", got, len(chunks))
	}
}

// TestCachedSteadyStateAllocationFree guards the trace-level hot paths:
// once a chunk is published, repeat reads of a bare memo, a
// zero-overlay source and a jittered overlay allocate nothing.
func TestCachedSteadyStateAllocationFree(t *testing.T) {
	const span = 512
	g := RealTrace(1)
	base := NewSource(g)
	member := base.Variant(3, 13, 0.2)
	for name, read := range map[string]func(simtime.Hour) float64{
		"memo":    newMemo(g.Activity).At,
		"source":  base.Activity,
		"overlay": member.Activity,
	} {
		for h := simtime.Hour(0); h < span; h++ {
			read(h) // publishes the chunks
		}
		h := simtime.Hour(0)
		if allocs := testing.AllocsPerRun(1000, func() {
			_ = read(h % span)
			h++
		}); allocs != 0 {
			t.Fatalf("%s: steady-state read allocates %.1f per call", name, allocs)
		}
	}
}

// TestSharedMatchesGenerator reads each Table II source at chunk
// boundaries and a century out, checking every read against direct
// evaluation and that only the touched chunks are computed: a far read
// grows the chunk table without filling the chunks it skips, and a
// second pass publishes nothing.
func TestSharedMatchesGenerator(t *testing.T) {
	hours := []simtime.Hour{0, 1, 100, chunkLen - 1, chunkLen, 2*chunkLen - 1, 2 * chunkLen,
		3*chunkLen + 7, 100 * simtime.HoursPerYear}
	chunks := map[simtime.Hour]bool{}
	for _, h := range hours {
		chunks[h/chunkLen] = true
	}
	for _, g := range TableII() {
		src := NewSource(g)
		for pass := 0; pass < 2; pass++ {
			before := PublishCount()
			if err := exact(src.Activity, g.Activity, hours); err != nil {
				t.Fatalf("%s pass %d: %v", g.Name, pass, err)
			}
			want := uint64(len(chunks))
			if pass > 0 {
				want = 0
			}
			if got := PublishCount() - before; got != want {
				t.Fatalf("%s pass %d: %d chunks published, want %d", g.Name, pass, got, want)
			}
		}
	}
}

// TestSharedMatchesCached checks that a source's memo, read by the
// source and by a replicated member's identity overlay, is
// bit-identical to an independent private memo over a year.
func TestSharedMatchesCached(t *testing.T) {
	g := RealTrace(2)
	shared := NewSource(g)
	member := shared.Variant(11, 0, 0)
	private := newMemo(g.Activity)
	for h := simtime.Hour(0); h < simtime.HoursPerYear; h += 3 {
		want := math.Float64bits(private.At(h))
		if got := math.Float64bits(shared.Activity(h)); got != want {
			t.Fatalf("hour %d: shared %v, private %v", h, shared.Activity(h), private.At(h))
		}
		if got := math.Float64bits(member.Activity(h)); got != want {
			t.Fatalf("hour %d: member %v, private %v", h, member.Activity(h), private.At(h))
		}
	}
}

// TestSharedTimelineMatchesDirect checks two timeline memos with
// different seeds over one shared activity source (a replicated
// group's store, and a VM re-seeded away from it): each follows its own
// seed at chunk boundaries and past year 3, on cold and warm reads, and
// the two never replay each other's bursts.
func TestSharedTimelineMatchesDirect(t *testing.T) {
	g := RealTrace(1)
	src := NewSource(g)
	a, b := NewTimelines(0x5eed, src), NewTimelines(0x5eee, src)
	hours := []simtime.Hour{0, 13, chunkLen - 1, chunkLen, 511, 512, 599, 600, 1000,
		3*simtime.HoursPerYear + 1}
	for pass := 0; pass < 2; pass++ {
		for _, m := range []*Memo[timeline.Hour]{a, b} {
			seed := m.Seed()
			direct := func(h simtime.Hour) timeline.Hour { return timeline.Expand(seed, h, g.Activity(h)) }
			if err := exact(m.At, direct, hours); err != nil {
				t.Fatalf("seed %#x pass %d: %v", seed, pass, err)
			}
		}
	}
	differ := 0
	for h := simtime.Hour(0); h < 7*24; h++ {
		if !reflect.DeepEqual(a.At(h), b.At(h)) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("timeline memos of two seeds replay the same bursts for a week")
	}
}

// TestSharedTimelineConcurrentReaders hammers one timeline memo over a
// cold shared activity source from 16 goroutines, each striding through
// the hours from its own offset, so activity and timeline chunks see
// first-touch races together (run under -race in CI); every read must
// equal direct expansion.
func TestSharedTimelineConcurrentReaders(t *testing.T) {
	g := RealTrace(2)
	st := NewTimelines(0x77, NewSource(g))
	direct := func(h simtime.Hour) timeline.Hour { return timeline.Expand(0x77, h, g.Activity(h)) }
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var hs []simtime.Hour
			for h := simtime.Hour(w); h < 2048; h += 5 {
				hs = append(hs, h)
			}
			if err := exact(st.At, direct, hs); err != nil {
				t.Errorf("reader %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}

// TestTimelineMemoNegativeHour checks that negative hours bypass the
// memo: a fill defined there is evaluated directly, a source's
// negative-hour panic surfaces through its timelines unchanged, and
// neither read publishes a chunk.
func TestTimelineMemoNegativeHour(t *testing.T) {
	before := PublishCount()
	m := newMemo(func(h simtime.Hour) timeline.Hour { return timeline.Expand(7, h, 0.5) })
	if got, want := m.At(-5), timeline.Expand(7, -5, 0.5); !reflect.DeepEqual(got, want) {
		t.Fatalf("negative hour: memo %v, direct %v", got, want)
	}
	g := RealTrace(1)
	tl := NewTimelines(7, NewSource(g))
	if _, p := outcome(tl.At, -5); p == nil {
		t.Fatal("negative hour through a source's timelines did not panic")
	}
	direct := func(h simtime.Hour) timeline.Hour { return timeline.Expand(7, h, g.Activity(h)) }
	if err := exact(tl.At, direct, []simtime.Hour{-5, -1}); err != nil {
		t.Fatal(err)
	}
	if n := PublishCount() - before; n != 0 {
		t.Fatalf("negative-hour reads published %d chunks", n)
	}
}

// TestVariantMemoBeyondHorizon checks overlays read far past the span
// their base memo was first read over: a base touched only over its
// first 100 hours grows its chunk table on the member's reads (up to a
// year-1 start, as a scenario may have), and every overlay read stays
// bit-identical to the member's own generator.
func TestVariantMemoBeyondHorizon(t *testing.T) {
	g := RealTrace(2)
	base := NewSource(g)
	for h := simtime.Hour(0); h < 100; h++ {
		base.Activity(h)
	}
	member := base.Variant(0xbe, 13, 0.2)
	var hs []simtime.Hour
	for h := simtime.Hour(0); h < 3000; h++ {
		hs = append(hs, h)
	}
	for h := simtime.Hour(simtime.HoursPerYear); h < simtime.HoursPerYear+200; h++ {
		hs = append(hs, h)
	}
	if err := exact(member.Activity, VariantJitter(g, 0xbe, 13, 0.2).Activity, hs); err != nil {
		t.Fatal(err)
	}
}

// TestVariantMemoConcurrentReaders hammers one base memo through 16
// member overlays concurrently (the scenario shape: all members of a
// non-replicated group, across policy cells, share one base). Run with
// -race; values are checked against each member's variant generator,
// evaluated directly up front.
func TestVariantMemoConcurrentReaders(t *testing.T) {
	g := RealTrace(3)
	const span, members = 2048, 16
	base := NewSource(g)
	want := make([][]float64, members)
	srcs := make([]Source, members)
	for m := 0; m < members; m++ {
		seed, shift := uint64(100+m), m*11
		srcs[m] = base.Variant(seed, shift, VariantJitterAmount)
		direct := VariantJitter(g, seed, shift, VariantJitterAmount)
		want[m] = make([]float64, span)
		for h := range want[m] {
			want[m][h] = direct.Activity(simtime.Hour(h))
		}
	}
	var wg sync.WaitGroup
	for m := 0; m < members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for h := 0; h < span; h++ {
				if got := srcs[m].Activity(simtime.Hour(h)); math.Float64bits(got) != math.Float64bits(want[m][h]) {
					t.Errorf("member %d hour %d: %v, want %v", m, h, got, want[m][h])
					return
				}
			}
		}(m)
	}
	wg.Wait()
}
