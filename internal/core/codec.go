package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"drowsydc/internal/simtime"
)

// codecMagic and codecVersion guard the binary format of a serialized
// idleness model; run checkpoints (internal/checkpoint) carry each VM's
// model in it. The layout is little-endian: the magic and the version
// (4 bytes each), SI_d in full, a 32-bit presence bitmap, the tables it
// marks in bit order, and the tail: the 4 weights, activeSum,
// activeCount, hoursObserved, hoursIdle and the three option fields.
// Bits 0–6 of the bitmap mark the SI_w day rows, bit 7 SI_m and bits
// 8–19 the SI_y month rows. A model with no stored table costs 292
// bytes; each SI_w row adds 192 and each month table 5,952.
//
// A table is written only when it is allocated and holds a non-zero bit
// pattern. A table of +0 scores reads as an unallocated one, so it is
// canonicalized to absent, and decoding rejects one marked present; a
// table holding a −0 stays allocated, so its bits survive. So
// encode∘decode∘encode is a fixed point, and a checkpoint captured
// right after a resume is byte-identical to the straight-through
// capture.
//
// A build decodes only the version it writes. Model bytes live only in
// run checkpoints, and drowsyd names each spill after a key that
// carries the build's version, so no build opens a spill another build
// wrote (DESIGN.md, "Crash safety").
const (
	codecMagic   = 0x44724459 // "DrDY"
	codecVersion = 4
)

// The presence bitmap: bits 0–6 are the SI_w day rows (weekMask), bit
// monthBit is SI_m and bits yearBit… are the SI_y month rows.
const (
	monthBit  = simtime.DaysPerWeek
	yearBit   = monthBit + 1
	numTables = yearBit + simtime.MonthsPerYear
	weekMask  = 1<<monthBit - 1
)

// headerLen counts the bytes before the tables: the magic, the version,
// SI_d and the bitmap. tailValues counts the 8-byte values after them:
// the 4 weights, activeSum, activeCount, hoursObserved, hoursIdle and
// the three option fields.
const (
	headerLen  = 8 + 8*simtime.HoursPerDay + 4
	tailValues = NumScales + 7
)

// scoresPerMonth is the size of one SI_m or SI_y month table.
const scoresPerMonth = simtime.HoursPerDay * simtime.DaysPerMonth

// tableRows is the backing array rows fills: a month table's day rows.
type tableRows [simtime.DaysPerMonth][]float64

// rows returns the day rows of the table behind bitmap bit b, each a
// slice of its HoursPerDay scores: one for an SI_w row, DaysPerMonth for
// SI_m or an SI_y row, and none when the table is unallocated. buf backs
// the result.
func (m *Model) rows(b int, buf *tableRows) [][]float64 {
	if b < monthBit {
		row := m.SIw[b]
		if row == nil {
			return nil
		}
		buf[0] = row[:]
		return buf[:1]
	}
	t := *m.month(b)
	if t == nil {
		return nil
	}
	for d := range t {
		buf[d] = t[d][:]
	}
	return buf[:]
}

// month returns the model's month table behind bitmap bit b ≥ monthBit.
func (m *Model) month(b int) **SIMonth {
	if b == monthBit {
		return &m.SIm
	}
	return &m.SIy[b-yearBit]
}

// setTable makes the table behind bitmap bit b a fresh one when alloc
// is set, and unallocated otherwise.
func (m *Model) setTable(b int, alloc bool) {
	if b < monthBit {
		m.SIw[b] = nil
		if alloc {
			m.SIw[b] = new(SIDay)
		}
		return
	}
	t := m.month(b)
	*t = nil
	if alloc {
		*t = new(SIMonth)
	}
}

// present returns the bitmap of m's stored tables: those allocated and
// holding a non-zero bit pattern.
func (m *Model) present() uint32 {
	var present uint32
	var buf tableRows
	for b := range numTables {
		for _, row := range m.rows(b, &buf) {
			if scoreBits(row) != 0 {
				present |= 1 << b
				break
			}
		}
	}
	return present
}

// scoreBits returns the OR of the scores' bit patterns: 0 exactly when
// every score is +0.
func scoreBits(scores []float64) uint64 {
	var or uint64
	for _, v := range scores {
		or |= math.Float64bits(v)
	}
	return or
}

// EncodedLen returns the number of bytes AppendBinary appends for m.
func (m *Model) EncodedLen() int { return encodedLen(m.present()) }

// encodedLen is the length of a model whose bitmap is present.
func encodedLen(present uint32) int {
	scores := bits.OnesCount32(present&weekMask)*simtime.HoursPerDay +
		bits.OnesCount32(present&^weekMask)*scoresPerMonth
	return headerLen + 8*(scores+tailValues)
}

// AppendBinary appends the encoding of m to dst and returns the
// extended slice; it implements encoding.BinaryAppender and never
// fails. It grows dst at most once, by EncodedLen bytes, and not at all
// when dst has that much spare capacity.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	present := m.present()
	dst = slices.Grow(dst, encodedLen(present))
	dst = binary.LittleEndian.AppendUint32(dst, codecMagic)
	dst = binary.LittleEndian.AppendUint32(dst, codecVersion)
	dst = appendScores(dst, m.SId[:])
	dst = binary.LittleEndian.AppendUint32(dst, present)
	var buf tableRows
	for b := range numTables {
		if present&(1<<b) != 0 {
			for _, row := range m.rows(b, &buf) {
				dst = appendScores(dst, row)
			}
		}
	}
	dst = appendScores(dst, m.W[:])
	dst = appendF(dst, m.activeSum)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.activeCount))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.hoursObserved))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.hoursIdle))
	dst = appendF(dst, m.opts.NoiseFloor)
	dst = appendF(dst, m.opts.DescentRate)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.opts.DescentSteps))
	return dst, nil
}

func appendF(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendScores(buf []byte, scores []float64) []byte {
	for _, v := range scores {
		buf = appendF(buf, v)
	}
	return buf
}

// UnmarshalBinary decodes a model in this build's codec version.
func (m *Model) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("core: truncated model header: %d bytes", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != codecMagic {
		return fmt.Errorf("core: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != codecVersion {
		return fmt.Errorf("core: unsupported model version %d (have %d)", version, codecVersion)
	}
	// The decoded scores and weights replace the current ones; drop the
	// IP memoized from them.
	m.memoHour = 0
	r := &modelReader{data: data, off: 8}
	if _, err := r.scores(m.SId[:]); err != nil {
		return err
	}
	present, err := r.u32()
	if err != nil {
		return err
	}
	if present>>numTables != 0 {
		return fmt.Errorf("core: table bitmap %#x has bits beyond table %d", present, numTables-1)
	}
	var buf tableRows
	for b := range numTables {
		stored := present&(1<<b) != 0
		m.setTable(b, stored)
		var or uint64
		for _, row := range m.rows(b, &buf) {
			v, err := r.scores(row)
			if err != nil {
				return err
			}
			or |= v
		}
		if stored && or == 0 {
			return fmt.Errorf("core: table %d marked present but all +0", b)
		}
	}
	return m.decodeTail(r)
}

// modelReader is a little-endian cursor over a serialized model with
// explicit truncation and NaN checks.
type modelReader struct {
	data []byte
	off  int
}

func (r *modelReader) f64(dst *float64, section string) error {
	if r.off+8 > len(r.data) {
		return fmt.Errorf("core: truncated model %s: %d bytes left, need 8", section, len(r.data)-r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	if math.IsNaN(v) {
		return fmt.Errorf("core: NaN in serialized model")
	}
	*dst = v
	return nil
}

func (r *modelReader) i64(dst *int64, section string) error {
	if r.off+8 > len(r.data) {
		return fmt.Errorf("core: truncated model %s: %d bytes left, need 8", section, len(r.data)-r.off)
	}
	*dst = int64(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return nil
}

func (r *modelReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, fmt.Errorf("core: truncated model bitmap: %d bytes left, need 4", len(r.data)-r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

// scores reads len(dst) scores into dst and returns the OR of their bit
// patterns.
func (r *modelReader) scores(dst []float64) (uint64, error) {
	var or uint64
	for i := range dst {
		if err := r.f64(&dst[i], "body"); err != nil {
			return 0, err
		}
		or |= math.Float64bits(dst[i])
	}
	return or, nil
}

// decodeTail reads the weights, counters and options, and rejects
// trailing garbage.
func (m *Model) decodeTail(r *modelReader) error {
	for i := range m.W {
		if err := r.f64(&m.W[i], "tail"); err != nil {
			return err
		}
	}
	if err := r.f64(&m.activeSum, "tail"); err != nil {
		return err
	}
	if err := r.i64(&m.activeCount, "tail"); err != nil {
		return err
	}
	if err := r.i64(&m.hoursObserved, "tail"); err != nil {
		return err
	}
	if err := r.i64(&m.hoursIdle, "tail"); err != nil {
		return err
	}
	if err := r.f64(&m.opts.NoiseFloor, "tail"); err != nil {
		return err
	}
	if err := r.f64(&m.opts.DescentRate, "tail"); err != nil {
		return err
	}
	var steps int64
	if err := r.i64(&steps, "tail"); err != nil {
		return err
	}
	m.opts.DescentSteps = int(steps)
	if r.off != len(r.data) {
		return fmt.Errorf("core: %d trailing bytes after serialized model", len(r.data)-r.off)
	}
	return nil
}
