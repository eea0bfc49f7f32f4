package core

import (
	"bytes"
	"encoding/binary"
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

// TestCodecSparseRoundTrip pins the version-2 sparse format: a model
// trained over a partial year round-trips exactly and costs far less
// than the dense layout.
func TestCodecSparseRoundTrip(t *testing.T) {
	m := trainedModel(45 * 24) // spans two months of SI_y
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dense, err := m.marshalDense()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(dense) {
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
	dense, err := m.marshalDense()
	if err != nil {
		t.Fatal(err)
	}
	var got Model
	if err := got.UnmarshalBinary(dense); err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, &got, simtime.HoursPerYear)
}

// TestCodecReencodeFixedPoint pins the canonicalization the checkpoint
// layer relies on: encoding a decoded model reproduces the original
// bytes exactly, so a checkpoint captured right after a resume is
// byte-identical to the straight-through capture.
func TestCodecReencodeFixedPoint(t *testing.T) {
	m := trainedModel(70 * 24)
	first, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Model
	if err := got.UnmarshalBinary(first); err != nil {
		t.Fatal(err)
	}
	second, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-encode of a decoded model differs from the original bytes")
	}
}

// TestCodecSparseRejections covers the sparse decoder's structural
// errors: truncation anywhere, a month bitmap with out-of-range bits,
// an all-zero month marked present, trailing garbage, and a version
// from the future.
func TestCodecSparseRejections(t *testing.T) {
	m := trainedModel(45 * 24)
	good, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Model
	// Truncation at a spread of byte boundaries (every boundary is the
	// fuzz target's job; here we pin representative sections).
	for _, n := range []int{0, 4, 8, 9, 100, len(good) / 2, len(good) - 1} {
		if err := got.UnmarshalBinary(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage.
	if err := got.UnmarshalBinary(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Future version.
	future := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(future[4:], 99)
	if err := got.UnmarshalBinary(future); err == nil {
		t.Fatal("unknown version accepted")
	}
	// Bitmap bits beyond month 11. The bitmap sits right after the
	// dense scores.
	bad := append([]byte{}, good...)
	off := 8 + 8*denseScores
	binary.LittleEndian.PutUint16(bad[off:], 0xF000)
	if err := got.UnmarshalBinary(bad); err == nil {
		t.Fatal("out-of-range month bits accepted")
	}
}

// TestCodecFreshModelTiny pins the size win for an untrained model —
// the common state of most VMs at the first month-boundary checkpoint —
// and the wire form of its unallocated SI_m table: the same zeros an
// allocated all-zero table writes, decoded back as unallocated.
func TestCodecFreshModelTiny(t *testing.T) {
	data, err := New().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 8*1024 {
		t.Fatalf("fresh model encodes to %d bytes; want under 8 KB", len(data))
	}
	zeroed := New()
	zeroed.SIm = new(SIMonth)
	if again, err := zeroed.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("an all-zero SI_m table encodes differently from an absent one (err %v)", err)
	}
	var got Model
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.SIm != nil {
		t.Fatal("an all-zero SI_m table decodes as allocated")
	}
}
