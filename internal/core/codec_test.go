package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"drowsydc/internal/simtime"
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

// marshalDense is the version-1 encoder: SI_m and all 12 SI_y rows
// written in full, an unallocated one as zeros, between the fixed
// scores and the tail every version shares. Only tests write version 1
// now, to pin that the decoder still reads it.
func (m *Model) marshalDense(t testing.TB) []byte {
	v3 := encode(t, m)
	buf := binary.LittleEndian.AppendUint32(nil, codecMagic)
	buf = binary.LittleEndian.AppendUint32(buf, codecVersionDense)
	buf = append(buf, v3[8:8+8*fixedScores]...)
	for _, row := range append([]*SIMonth{m.SIm}, m.SIy[:]...) {
		if row == nil {
			row = new(SIMonth)
		}
		buf = appendMonth(buf, row)
	}
	return append(buf, v3[len(v3)-8*tailValues:]...)
}

// readModelV2 returns testdata/model-v2.bin: trainedModel(45*24) as the
// version-2 encoder wrote it. It holds SI_m and the January and
// February SI_y rows.
func readModelV2(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/model-v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != codecVersionSparse {
		t.Fatalf("fixture is version %d, want %d", v, codecVersionSparse)
	}
	return data
}

// TestCodecSparseRoundTrip pins the version-3 sparse format: a model
// trained over a partial year round-trips exactly and costs far less
// than the dense layout.
func TestCodecSparseRoundTrip(t *testing.T) {
	m := trainedModel(45 * 24) // spans two months of SI_y
	data := encode(t, m)
	if v := binary.LittleEndian.Uint32(data[4:]); v != codecVersion {
		t.Fatalf("encoded as version %d, want %d", v, codecVersion)
	}
	if dense := m.marshalDense(t); len(data) >= len(dense) {
		t.Fatalf("sparse encoding (%d bytes) not smaller than dense (%d bytes)", len(data), len(dense))
	}
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, &got, simtime.HoursPerYear)
}

// TestCodecDenseCompat pins backward compatibility: version-1 bytes
// decode to the same model the sparse path produces.
func TestCodecDenseCompat(t *testing.T) {
	m := trainedModel(40 * 24)
	var got Model
	if err := got.UnmarshalBinary(m.marshalDense(t)); err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, &got, simtime.HoursPerYear)
	if !bytes.Equal(encode(t, &got), encode(t, m)) {
		t.Fatal("a version-1 model re-encodes differently from the original")
	}
}

// TestCodecVersion2Fixture pins version 2 against bytes the version-2
// encoder wrote: the fixture decodes to the model it was made from,
// tables and all, and re-encodes as exactly that model's version-3
// bytes.
func TestCodecVersion2Fixture(t *testing.T) {
	m := trainedModel(45 * 24)
	var got Model
	if err := got.UnmarshalBinary(readModelV2(t)); err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, &got, simtime.HoursPerYear)
	if got.SIm == nil || *got.SIm != *m.SIm {
		t.Fatal("SI_m lost in the version-2 decode")
	}
	for mo := range got.SIy {
		if (got.SIy[mo] == nil) != (mo > 1) {
			t.Fatalf("SI_y month %d allocated = %v, want months 0 and 1 only", mo, got.SIy[mo] != nil)
		}
	}
	if !bytes.Equal(encode(t, &got), encode(t, m)) {
		t.Fatal("the version-2 fixture re-encodes differently from its model")
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

// TestCodecSparseRejections covers the sparse decoder's structural
// errors. Version 2, on the fixture: a bitmap bit beyond month 11 (bit
// 12 is SI_m only from version 3 on). Version 3, on the encoder: bits
// beyond 12, SI_m marked present but all zero, truncation, a trailing
// byte and a version from the future.
func TestCodecSparseRejections(t *testing.T) {
	var got Model
	v2 := readModelV2(t)
	off2 := 8 + 8*(fixedScores+scoresPerMonth) // after SI_m
	for _, bit := range []uint16{1 << 12, 1 << 15} {
		bad := bytes.Clone(v2)
		binary.LittleEndian.PutUint16(bad[off2:], binary.LittleEndian.Uint16(bad[off2:])|bit)
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Fatalf("version 2: bitmap bit %#x accepted", bit)
		}
	}

	good := encode(t, trainedModel(45*24))
	off3 := 8 + 8*fixedScores
	if p := binary.LittleEndian.Uint16(good[off3:]); p != 1<<simBit|0b11 {
		t.Fatalf("version-3 bitmap %#x, want SI_m and two SI_y months", p)
	}
	for _, bit := range []uint16{1 << 13, 1 << 15} {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint16(bad[off3:], binary.LittleEndian.Uint16(bad[off3:])|bit)
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Fatalf("version 3: bitmap bit %#x accepted", bit)
		}
	}
	// SI_m marked present, written as zeros.
	fresh := encode(t, New())
	zeroSIm := append(bytes.Clone(fresh[:off3+2]), make([]byte, 8*scoresPerMonth)...)
	zeroSIm = append(zeroSIm, fresh[off3+2:]...)
	binary.LittleEndian.PutUint16(zeroSIm[off3:], 1<<simBit)
	if err := got.UnmarshalBinary(zeroSIm); err == nil {
		t.Fatal("an all-zero SI_m marked present accepted")
	}
	// Truncation at a spread of byte boundaries (every boundary is the
	// fuzz target's job; here we pin representative sections).
	for _, n := range []int{0, 4, 8, 9, off3 + 1, off3 + 100, len(good) / 2, len(good) - 1} {
		if err := got.UnmarshalBinary(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if err := got.UnmarshalBinary(append(bytes.Clone(good), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	future := bytes.Clone(good)
	binary.LittleEndian.PutUint32(future[4:], codecVersion+1)
	if err := got.UnmarshalBinary(future); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestCodecFreshModelTiny pins the size of an untrained model — the
// common state of most VMs at the first checkpoint — and of every
// model of a run shorter than SI_m's read-back gap: no table at all. An
// allocated all-zero SI_m encodes as an absent one and decodes as
// unallocated.
func TestCodecFreshModelTiny(t *testing.T) {
	data := encode(t, New())
	if len(data) > 1634 {
		t.Fatalf("fresh model encodes to %d bytes; want at most 1,634", len(data))
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

// TestCodecWeekRows pins how SI_w rows cross the codec, whose layout
// writes every row: an unallocated row encodes as 24 zeros, a row of +0
// scores decodes as nil, and a row holding a −0 stays allocated, so its
// bits re-encode unchanged.
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
			t.Fatalf("the all-zero SI_w row %d decodes as allocated", d)
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

// FuzzModelDecode drives UnmarshalBinary with arbitrary bytes: no input
// panics, an accepted version-3 input re-encodes to itself, and any
// accepted input (version 1, 2 or 3) re-encodes as version 3 to a fixed
// point.
func FuzzModelDecode(f *testing.F) {
	fresh, trained := encode(f, New()), encode(f, trainedModel(45*24))
	f.Add(fresh)
	f.Add(trained)
	f.Add(readModelV2(f))
	f.Add(New().marshalDense(f))
	f.Add([]byte{})
	f.Add(trained[:8])
	f.Add(trained[:len(trained)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if err := m.UnmarshalBinary(data); err != nil {
			if err.Error() == "" {
				t.Fatal("empty error text")
			}
			return
		}
		enc := encode(t, &m)
		if binary.LittleEndian.Uint32(data[4:]) == codecVersion && !bytes.Equal(enc, data) {
			t.Fatal("accepted version-3 input does not re-encode to itself")
		}
		var again Model
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded model does not decode: %v", err)
		}
		if !bytes.Equal(encode(t, &again), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
