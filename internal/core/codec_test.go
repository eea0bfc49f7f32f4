package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"slices"
	"testing"

	"drowsydc/internal/simtime"
	"drowsydc/internal/trace"
)

// modelsEqual compares the observable surface of two models over a span
// of hours plus every counter the codec carries.
func modelsEqual(t *testing.T, a, b *Model, hours simtime.Hour) {
	t.Helper()
	for h := simtime.Hour(0); h < hours; h++ {
		st := simtime.Decompose(h)
		if a.IP(st) != b.IP(st) {
			t.Fatalf("IP mismatch at hour %d: %v vs %v", h, a.IP(st), b.IP(st))
		}
	}
	if a.MeanActiveLevel() != b.MeanActiveLevel() ||
		a.HoursObserved() != b.HoursObserved() ||
		a.IdleFractionObserved() != b.IdleFractionObserved() ||
		a.Options() != b.Options() {
		t.Fatal("counters or options differ")
	}
}

// encode is AppendBinary into a fresh slice.
func encode(t testing.TB, m *Model) []byte {
	t.Helper()
	data, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// shortModel is a model observed for 178 hours under a read horizon of
// 200: it keeps the week rows of the days observed at least a week
// before the horizon, Monday's and Tuesday's, and leaves the other five
// and every month table nil.
func shortModel() *Model {
	m := New()
	g := trace.RealTrace(1)
	for h := simtime.Hour(0); h < 178; h++ {
		ObserveColumn(simtime.Decompose(h), []*Model{m}, []float64{g.Activity(h)}, 200)
	}
	return m
}

// readModelFixtures returns the two models of testdata/model-v4.bin,
// which holds trainedModel(45*24) and shortModel() back to back, as
// this version's encoder wrote them. The first one's bitmap gives its
// length.
func readModelFixtures(t testing.TB) [2][]byte {
	t.Helper()
	data, err := os.ReadFile("testdata/model-v4.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < headerLen {
		t.Fatalf("fixture of %d bytes", len(data))
	}
	n := encodedLen(binary.LittleEndian.Uint32(data[headerLen-4:]))
	if n > len(data) {
		t.Fatalf("first fixture model of %d bytes in a %d-byte file", n, len(data))
	}
	return [2][]byte{data[:n:n], data[n:]}
}

// tablesEqual reports whether a and b allocate the same SI_w rows, SI_m
// and SI_y rows and hold the same bits in them and in SI_d.
func tablesEqual(a, b *Model) bool {
	var bufA, bufB tableRows
	for tb := range numTables {
		ra, rb := a.rows(tb, &bufA), b.rows(tb, &bufB)
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if !slices.Equal(bitsOf(ra[i]), bitsOf(rb[i])) {
				return false
			}
		}
	}
	return slices.Equal(bitsOf(a.SId[:]), bitsOf(b.SId[:]))
}

func bitsOf(scores []float64) []uint64 {
	out := make([]uint64, len(scores))
	for i, v := range scores {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestCodecSparseRoundTrip pins the sparse format: a model trained over
// a partial year round-trips exactly and costs only its stored tables,
// here the 7 SI_w rows, SI_m and two SI_y months.
func TestCodecSparseRoundTrip(t *testing.T) {
	m := trainedModel(45 * 24) // spans two months of SI_y
	data := encode(t, m)
	if v := binary.LittleEndian.Uint32(data[4:]); v != codecVersion {
		t.Fatalf("encoded as version %d, want %d", v, codecVersion)
	}
	if want := 292 + 7*192 + 3*5952; len(data) != want {
		t.Fatalf("encoded %d bytes, want %d", len(data), want)
	}
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, &got, simtime.HoursPerYear)
}

// TestCodecVersion4Fixture pins the format against bytes this version's
// encoder wrote: each model of testdata/model-v4.bin decodes to the
// freshly trained model it was made from, tables, IPs and counters
// alike, and re-encodes to exactly its own bytes. A layout change
// without a version bump, or a change to the training arithmetic,
// fails here.
func TestCodecVersion4Fixture(t *testing.T) {
	fixtures := readModelFixtures(t)
	for i, m := range []*Model{trainedModel(45 * 24), shortModel()} {
		var got Model
		if err := got.UnmarshalBinary(fixtures[i]); err != nil {
			t.Fatal(err)
		}
		modelsEqual(t, m, &got, simtime.HoursPerYear)
		if !tablesEqual(m, &got) || got.W != m.W {
			t.Fatalf("fixture model %d: tables or weights differ from the trained model's", i)
		}
		if !bytes.Equal(encode(t, &got), fixtures[i]) {
			t.Fatalf("fixture model %d re-encodes differently", i)
		}
	}
	if short := fixtures[1]; binary.LittleEndian.Uint32(short[headerLen-4:]) != 0b11 {
		t.Fatal("the short-horizon fixture model does not store exactly the Monday and Tuesday rows")
	}
}

// TestCodecReencodeFixedPoint pins the canonicalization the checkpoint
// layer relies on: encoding a decoded model reproduces the original
// bytes exactly, so a checkpoint captured right after a resume is
// byte-identical to the straight-through capture.
func TestCodecReencodeFixedPoint(t *testing.T) {
	first := encode(t, trainedModel(70*24))
	var got Model
	if err := got.UnmarshalBinary(first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, encode(t, &got)) {
		t.Fatal("re-encode of a decoded model differs from the original bytes")
	}
}

// TestCodecSparseRejections covers the decoder's structural errors, on
// the encoder's own bytes: bitmap bits beyond the last table, a week row
// and SI_m each marked present but all +0, truncation, a trailing byte,
// and every version but this one.
func TestCodecSparseRejections(t *testing.T) {
	var got Model
	good := encode(t, trainedModel(45*24))
	off := headerLen - 4 // the bitmap
	if p := binary.LittleEndian.Uint32(good[off:]); p != weekMask|1<<monthBit|0b11<<yearBit {
		t.Fatalf("bitmap %#x, want the 7 SI_w rows, SI_m and two SI_y months", p)
	}
	for _, bit := range []uint32{1 << numTables, 1 << 31} {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint32(bad[off:], binary.LittleEndian.Uint32(bad[off:])|bit)
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Fatalf("bitmap bit %#x accepted", bit)
		}
	}
	fresh := encode(t, New())
	for _, tc := range []struct{ bit, scores int }{{3, simtime.HoursPerDay}, {monthBit, scoresPerMonth}} {
		zero := append(bytes.Clone(fresh[:headerLen]), make([]byte, 8*tc.scores)...)
		zero = append(zero, fresh[headerLen:]...)
		binary.LittleEndian.PutUint32(zero[off:], 1<<tc.bit)
		if err := got.UnmarshalBinary(zero); err == nil {
			t.Fatalf("table %d marked present and written as +0 accepted", tc.bit)
		}
	}
	// Truncation at a spread of byte boundaries (every boundary is the
	// fuzz target's job; here we pin representative sections).
	for _, n := range []int{0, 4, 8, 9, off + 1, off + 100, len(good) / 2, len(good) - 1} {
		if err := got.UnmarshalBinary(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if err := got.UnmarshalBinary(append(bytes.Clone(good), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for _, v := range []uint32{1, 2, 3, codecVersion + 1} {
		other := bytes.Clone(good)
		binary.LittleEndian.PutUint32(other[4:], v)
		if err := got.UnmarshalBinary(other); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

// TestCodecFreshModelTiny pins the size of an untrained model — the
// common state of most VMs at the first checkpoint — and of every
// model of a run shorter than SI_w's read-back gap: SI_d, the bitmap and
// the tail, no table at all. An allocated all-+0 SI_m encodes as an
// absent one and decodes as unallocated.
func TestCodecFreshModelTiny(t *testing.T) {
	data := encode(t, New())
	if len(data) != 292 {
		t.Fatalf("fresh model encodes to %d bytes; want 292", len(data))
	}
	zeroed := New()
	zeroed.SIm = new(SIMonth)
	if again := encode(t, zeroed); !bytes.Equal(again, data) {
		t.Fatal("an all-zero SI_m table encodes differently from an absent one")
	}
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.SIm != nil {
		t.Fatal("an all-zero SI_m table decodes as allocated")
	}
}

// TestCodecWeekRows pins how SI_w rows cross the codec: a row of +0
// scores encodes as an absent one, decoding a model without a row leaves
// it nil even where the receiver held one, and a row holding a −0 stays
// allocated, so its bits re-encode unchanged.
func TestCodecWeekRows(t *testing.T) {
	fresh := encode(t, New())
	zeroed := New()
	zeroed.SIw[3] = new(SIDay)
	if !bytes.Equal(encode(t, zeroed), fresh) {
		t.Fatal("an all-zero SI_w row encodes differently from an absent one")
	}
	negZero := New()
	negZero.SIw[3] = new(SIDay)
	negZero.SIw[3][5] = math.Copysign(0, -1)
	data := encode(t, negZero)
	if len(data) != len(fresh)+8*simtime.HoursPerDay {
		t.Fatalf("a model with one SI_w row encodes to %d bytes, want %d", len(data), len(fresh)+8*simtime.HoursPerDay)
	}
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.SIw[3] == nil || !bytes.Equal(encode(t, &got), data) {
		t.Fatal("a SI_w row holding −0 does not survive the round trip")
	}
	if err := got.UnmarshalBinary(fresh); err != nil {
		t.Fatal(err)
	}
	for d, row := range got.SIw {
		if row != nil {
			t.Fatalf("SI_w row %d, absent from the bytes, decodes as allocated", d)
		}
	}
}

// TestAppendBinaryRightSized: EncodedLen is the exact length
// AppendBinary appends, and appending into a buffer with that much
// spare capacity allocates nothing — what lets a checkpoint capture
// encode every model into one presized arena.
func TestAppendBinaryRightSized(t *testing.T) {
	for _, m := range []*Model{New(), trainedModel(45 * 24), trainedModel(70 * 24)} {
		prefix := []byte("prefix")
		out, err := m.AppendBinary(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(out) - len(prefix); got != m.EncodedLen() {
			t.Fatalf("appended %d bytes, EncodedLen says %d", got, m.EncodedLen())
		}
		if !bytes.Equal(out[len(prefix):], encode(t, m)) || string(out[:len(prefix)]) != "prefix" {
			t.Fatal("appending after a prefix changed the bytes")
		}
		buf := make([]byte, 0, m.EncodedLen())
		n := testing.AllocsPerRun(10, func() {
			if _, err := m.AppendBinary(buf[:0]); err != nil {
				t.Error(err)
			}
		})
		if n != 0 {
			t.Fatalf("AppendBinary into a presized buffer allocated %v times", n)
		}
	}
}

// FuzzModelDecode drives UnmarshalBinary with arbitrary bytes, seeded
// from the fixtures: no input panics, and every accepted input
// re-encodes to exactly itself.
func FuzzModelDecode(f *testing.F) {
	fixtures := readModelFixtures(f)
	trained := fixtures[0]
	f.Add(encode(f, New()))
	f.Add(trained)
	f.Add(fixtures[1])
	f.Add([]byte{})
	f.Add(trained[:8])
	f.Add(trained[:len(trained)-1])
	f.Add(append(bytes.Clone(trained), fixtures[1]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if err := m.UnmarshalBinary(data); err != nil {
			if err.Error() == "" {
				t.Fatal("empty error text")
			}
			return
		}
		if !bytes.Equal(encode(t, &m), data) {
			t.Fatal("accepted input does not re-encode to itself")
		}
	})
}
