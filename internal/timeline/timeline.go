// Package timeline expands hourly activity levels into deterministic
// within-hour request bursts and idle gaps.
//
// The simulator's native resolution is the hour — the resolution of the
// idleness model (§III-A of the paper). But the quantities the paper's
// suspending module trades off are second-scale: the anti-oscillation
// grace time spans 5 s to 2 min, S3 suspend/resume transitions take
// 0.7–4 s, and the suspension decision costs about a second. At hourly
// resolution those latencies only compete where a resume and an
// idle-hour check happen to collide; this package supplies the missing
// layer by deterministically expanding each active hour into a burst
// timeline, so idle gaps of minutes — the scale grace and resume
// latency actually operate at — exist inside the simulation.
//
// Determinism contract: Expand is a pure function of (seed, hour,
// level), built on the same splitmix64 hashing as trace.Jitter's noise.
// The same inputs always yield the same bursts, which is what makes the
// expansion memoizable (trace.NewTimelines, private or shared across
// policy cells) and keeps simulations bit-identical across runs,
// worker counts and memo sharing.
package timeline

import "drowsydc/internal/simtime"

// SecondsPerHour is the span a timeline covers.
const SecondsPerHour = int(simtime.HourD)

// MaxBurstsPerHour caps how many bursts one hour expands into. Four
// bursts at mid-range levels yield gaps of minutes — long enough for a
// suspend/resume cycle to fit, short enough that the grace time's
// 5 s – 2 min range genuinely gates it.
const MaxBurstsPerHour = 4

// Burst is one active interval within an hour: the half-open second
// range [Start, End) counted from the hour's first second. Every second
// of an hour, SecondsPerHour included, fits in 16 bits.
type Burst struct {
	Start uint16
	End   uint16
}

// Len returns the burst length in seconds.
func (b Burst) Len() int { return int(b.End) - int(b.Start) }

// Hour is one hour's burst timeline held inline: a count and a fixed
// array, 18 bytes in all, so a memo chunk stores its hours flat and an
// expansion allocates nothing.
type Hour struct {
	n uint8
	b [MaxBurstsPerHour]Burst
}

// Bursts returns the hour's bursts, sorted and disjoint. The slice
// aliases h and is capped at its length, so a caller's append copies
// instead of writing into h (a memo's hours are read by many cells).
func (h *Hour) Bursts() []Burst { return h.b[:h.n:h.n] }

// fullHour is the timeline of a level at or above one.
var fullHour = Hour{n: 1, b: [MaxBurstsPerHour]Burst{{0, uint16(SecondsPerHour)}}}

// SplitMix64 is the deterministic hash primitive behind both timeline
// expansion and trace noise (trace.hashUnit delegates here). Keeping
// one definition is what makes the "same hashing" contract of the
// package docs enforceable rather than aspirational.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MixSeed folds any number of identifiers into one timeline seed.
// Callers use it to derive per-VM seeds from structural coordinates
// (group index, group seed, member index) so that seeds are a pure
// function of scenario structure — the property the shared-vs-private
// equivalence tests rely on.
func MixSeed(parts ...uint64) uint64 {
	h := uint64(0x7e11a9bead5eed01)
	for _, p := range parts {
		h = SplitMix64(h ^ SplitMix64(p))
	}
	return h
}

// rng is a tiny deterministic stream over the (seed, hour) hash chain.
type rng struct{ state uint64 }

func newRNG(seed uint64, h simtime.Hour) rng {
	return rng{state: SplitMix64(seed ^ SplitMix64(uint64(h)))}
}

func (r *rng) next() uint64 {
	r.state = SplitMix64(r.state)
	return r.state
}

// unit maps a hash to a uniform float in [0, 1).
func unit(v uint64) float64 { return float64(v>>11) / float64(1<<53) }

// Expand converts an hourly activity level into the hour's burst
// timeline. The busy time rounds to level × 3600 seconds (at least one
// second for any positive level), split into 1–MaxBurstsPerHour bursts
// separated by idle gaps of at least one second; leading and trailing
// gaps may be empty. A zero (or negative, or NaN) level yields no
// bursts; a level at or above one yields the full hour.
//
// Expand is pure: the same (seed, h, level) always returns the same
// timeline (see the package comment for why that matters).
func Expand(seed uint64, h simtime.Hour, level float64) Hour {
	if !(level > 0) { // also catches NaN
		return Hour{}
	}
	if level >= 1 {
		return fullHour
	}
	busy := int(level*float64(SecondsPerHour) + 0.5)
	if busy < 1 {
		busy = 1
	}
	if busy >= SecondsPerHour {
		return fullHour
	}
	idle := SecondsPerHour - busy
	r := newRNG(seed, h)
	// Burst count: uniform in [1, maxN], bounded so every burst spans at
	// least one second and every inner gap at least one second.
	maxN := MaxBurstsPerHour
	if busy < maxN {
		maxN = busy
	}
	if idle+1 < maxN {
		maxN = idle + 1
	}
	n := 1 + int(r.next()%uint64(maxN))
	// Partition the busy seconds into n burst lengths (base 1 each) and
	// the idle seconds into n+1 gaps (base 1 for the n-1 inner gaps).
	var burstExtra, gapExtra [MaxBurstsPerHour + 1]int
	partition(burstExtra[:n], busy-n, &r)
	partition(gapExtra[:n+1], idle-(n-1), &r)
	out := Hour{n: uint8(n)}
	pos := gapExtra[0]
	for i := 0; i < n; i++ {
		l := 1 + burstExtra[i]
		out.b[i] = Burst{uint16(pos), uint16(pos + l)}
		pos += l + gapExtra[i+1]
		if i < n-1 {
			pos++ // inner gaps carry a base second
		}
	}
	return out
}

// partition splits total seconds into len(parts) non-negative parts
// with hashed weights (deterministic, order-stable remainder handling).
// parts arrives zeroed and holds at most MaxBurstsPerHour+1 parts.
func partition(parts []int, total int, r *rng) {
	k := len(parts)
	if total <= 0 || k <= 0 {
		return
	}
	var buf [MaxBurstsPerHour + 1]float64
	weights := buf[:k]
	sum := 0.0
	for i := range weights {
		// Floor of 0.25 keeps any one part from degenerating to a
		// sliver, so burst and gap lengths stay within ~an order of
		// magnitude of each other.
		w := 0.25 + unit(r.next())
		weights[i] = w
		sum += w
	}
	acc := 0
	for i := range parts {
		p := int(float64(total) * weights[i] / sum)
		parts[i] = p
		acc += p
	}
	for i := 0; acc < total; i++ {
		parts[i%k]++
		acc++
	}
}

// BusySeconds sums the burst lengths of a timeline.
func BusySeconds(bursts []Burst) int {
	s := 0
	for _, b := range bursts {
		s += b.Len()
	}
	return s
}

// Union merges several timelines into the host-level awake set: the
// sorted, disjoint intervals during which at least one input timeline
// is bursting. Touching intervals coalesce (a burst ending the second
// another starts leaves the host no idle instant). dst is reused as the
// result's backing storage when large enough, so a per-hour caller
// allocates nothing in steady state.
func Union(dst []Burst, lists ...[]Burst) []Burst {
	dst = dst[:0]
	// Gather and insertion-sort by start; the inputs are few and already
	// internally sorted, so this stays cheap without allocating.
	for _, l := range lists {
		for _, b := range l {
			dst = append(dst, b)
			for i := len(dst) - 1; i > 0 && dst[i-1].Start > dst[i].Start; i-- {
				dst[i-1], dst[i] = dst[i], dst[i-1]
			}
		}
	}
	if len(dst) == 0 {
		return dst
	}
	out := dst[:1]
	for _, b := range dst[1:] {
		last := &out[len(out)-1]
		if b.Start <= last.End {
			if b.End > last.End {
				last.End = b.End
			}
			continue
		}
		out = append(out, b)
	}
	return out
}
