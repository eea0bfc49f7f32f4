package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"drowsydc/internal/simtime"
)

// codecMagic and the codec versions guard the binary format of a
// serialized idleness model. Run checkpoints (internal/checkpoint) carry
// each VM's model in it. Every version starts with the magic and the
// version (4 bytes each), then SI_d and the 7 SI_w day rows in full (an
// unallocated row as 24 zeros), and ends with the same tail: the 4
// weights, activeSum, activeCount, hoursObserved, hoursIdle and the
// three option fields. They differ in how they write the two large
// tables, SI_m and the 12 SI_y month rows (744 scores each):
//   - Version 1 (dense) writes SI_m and all 12 SI_y rows, an unallocated
//     one as zeros: 79 KB per model however little of the year was
//     observed.
//   - Version 2 writes SI_m in full, then a 16-bit bitmap with bit mo
//     set for each SI_y row present, then those rows in month order.
//   - Version 3 moves SI_m behind bit 12 of that bitmap, after the SI_y
//     rows, so a model with no stored table costs 1,634 bytes.
//
// A table is written only when it is allocated and holds a non-zero
// score: an all-zero table reads as an unallocated one, so it is
// canonicalized to absent, and every decoder restores an absent or
// all-zero table as nil. Likewise every decoder restores an SI_w row
// whose 24 scores are all +0 as nil; a row holding a −0 stays
// allocated, so its bits survive. So encode∘decode∘encode is a fixed
// point, and a checkpoint captured right after a resume is
// byte-identical to the straight-through capture. Encoding always
// writes version 3; decoding accepts all three, so checkpoints from
// earlier builds still resume.
const (
	codecMagic         = 0x44724459 // "DrDY"
	codecVersionDense  = 1
	codecVersionSparse = 2
	codecVersion       = 3
)

// scoresPerMonth is the size of one SI_m or SI_y month table.
const scoresPerMonth = simtime.HoursPerDay * simtime.DaysPerMonth

// fixedScores is the number of SI values every version writes in full:
// 24 SI_d + 24×7 SI_w.
const fixedScores = simtime.HoursPerDay + simtime.HoursPerDay*simtime.DaysPerWeek

// tailValues counts the fixed values after the score tables: the 4
// weights, activeSum, activeCount, hoursObserved, hoursIdle and the
// three option fields.
const tailValues = NumScales + 7

// numTables is the number of tables behind the version-3 bitmap: bits
// 0–11 are the SI_y month rows, bit simBit is SI_m.
const (
	simBit    = simtime.MonthsPerYear
	numTables = simBit + 1
)

// table returns the model's table behind bitmap bit b.
func (m *Model) table(b int) **SIMonth {
	if b == simBit {
		return &m.SIm
	}
	return &m.SIy[b]
}

// present returns the version-3 bitmap of m's stored tables: those
// allocated and holding a non-zero score.
func (m *Model) present() uint16 {
	var present uint16
	for b := range numTables {
		if t := *m.table(b); t != nil && !rowIsZero(t) {
			present |= 1 << b
		}
	}
	return present
}

// EncodedLen returns the number of bytes AppendBinary appends for m.
func (m *Model) EncodedLen() int { return encodedLen(m.present()) }

// encodedLen is the version-3 length of a model whose bitmap is present:
// the header, SI_d and SI_w, the bitmap, the present tables and the tail.
func encodedLen(present uint16) int {
	return 8 + 8*fixedScores + 2 + 8*(bits.OnesCount16(present)*scoresPerMonth+tailValues)
}

// AppendBinary appends the version-3 encoding of m to dst and returns
// the extended slice; it implements encoding.BinaryAppender and never
// fails. It grows dst at most once, by EncodedLen bytes, and not at all
// when dst has that much spare capacity.
func (m *Model) AppendBinary(dst []byte) ([]byte, error) {
	present := m.present()
	dst = slices.Grow(dst, encodedLen(present))
	dst = binary.LittleEndian.AppendUint32(dst, codecMagic)
	dst = binary.LittleEndian.AppendUint32(dst, codecVersion)
	for _, v := range m.SId {
		dst = appendF(dst, v)
	}
	for _, row := range m.SIw {
		if row == nil {
			row = &zeroDay
		}
		for _, v := range row {
			dst = appendF(dst, v)
		}
	}
	dst = binary.LittleEndian.AppendUint16(dst, present)
	for b := range numTables {
		if present&(1<<b) != 0 {
			dst = appendMonth(dst, *m.table(b))
		}
	}
	for _, v := range m.W {
		dst = appendF(dst, v)
	}
	dst = appendF(dst, m.activeSum)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.activeCount))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.hoursObserved))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.hoursIdle))
	dst = appendF(dst, m.opts.NoiseFloor)
	dst = appendF(dst, m.opts.DescentRate)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.opts.DescentSteps))
	return dst, nil
}

// zeroDay is what an unallocated SI_w row reads and encodes as.
var zeroDay SIDay

func appendF(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendMonth appends a month table's scores.
func appendMonth(buf []byte, t *SIMonth) []byte {
	for d := range t {
		for _, v := range t[d] {
			buf = appendF(buf, v)
		}
	}
	return buf
}

func rowIsZero(row *SIMonth) bool {
	for d := range row {
		for _, v := range row[d] {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// UnmarshalBinary decodes a model encoded in any codec version: the
// dense version 1, or the sparse versions 2 and 3.
func (m *Model) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("core: truncated model header: %d bytes", len(data))
	}
	magic := binary.LittleEndian.Uint32(data)
	if magic != codecMagic {
		return fmt.Errorf("core: bad magic %#x", magic)
	}
	version := binary.LittleEndian.Uint32(data[4:])
	switch version {
	case codecVersionDense:
		return m.unmarshalDense(data[8:])
	case codecVersionSparse, codecVersion:
		return m.unmarshalSparse(data[8:], version)
	default:
		return fmt.Errorf("core: unsupported model version %d", version)
	}
}

// modelReader is a little-endian cursor over a serialized model body
// with explicit truncation and NaN checks.
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

func (r *modelReader) u16(dst *uint16, section string) error {
	if r.off+2 > len(r.data) {
		return fmt.Errorf("core: truncated model %s: %d bytes left, need 2", section, len(r.data)-r.off)
	}
	*dst = binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return nil
}

// unmarshalSparse decodes a version-2 or version-3 body (after
// magic+version). The two differ only in where SI_m sits: version 2
// writes it in full before the bitmap, whose bits then cover the SI_y
// rows alone; version 3 writes it behind bit simBit.
func (m *Model) unmarshalSparse(body []byte, version uint32) error {
	// The decoded scores and weights replace the current ones; drop the
	// IP memoized from them.
	m.memoHour = 0
	r := &modelReader{data: body}
	if err := m.decodeFixedScores(r); err != nil {
		return err
	}
	tables := numTables
	if version == codecVersionSparse {
		t, err := r.month()
		if err != nil {
			return err
		}
		m.SIm = t
		tables = simtime.MonthsPerYear
	}
	var present uint16
	if err := r.u16(&present, "body"); err != nil {
		return err
	}
	if present>>tables != 0 {
		return fmt.Errorf("core: table bitmap %#x has bits beyond table %d", present, tables-1)
	}
	for b := range tables {
		t := m.table(b)
		if present&(1<<b) == 0 {
			*t = nil
			continue
		}
		row, err := r.month()
		if err != nil {
			return err
		}
		if row == nil {
			return fmt.Errorf("core: table %d marked present but all-zero", b)
		}
		*t = row
	}
	return m.decodeTail(r)
}

// unmarshalDense decodes the version-1 body: SI_m and every SI_y month
// written unconditionally, all-zero ones restored as nil to preserve
// allocation laziness.
func (m *Model) unmarshalDense(body []byte) error {
	m.memoHour = 0
	r := &modelReader{data: body}
	if err := m.decodeFixedScores(r); err != nil {
		return err
	}
	t, err := r.month()
	if err != nil {
		return err
	}
	m.SIm = t
	for mo := range m.SIy {
		row, err := r.month()
		if err != nil {
			return err
		}
		m.SIy[mo] = row
	}
	return m.decodeTail(r)
}

// month reads one month table's scores. An all-zero table decodes as
// nil, the unallocated form that reads the same.
func (r *modelReader) month() (*SIMonth, error) {
	var t SIMonth
	zero := true
	for d := range t {
		for i := range t[d] {
			if err := r.f64(&t[d][i], "body"); err != nil {
				return nil, err
			}
			if t[d][i] != 0 {
				zero = false
			}
		}
	}
	if zero {
		return nil, nil
	}
	cp := t
	return &cp, nil
}

// decodeFixedScores reads the SI_d table and the SI_w rows every
// version writes in full. A row whose scores are all +0 bit patterns
// decodes as nil, the unallocated form that reads and encodes the same.
func (m *Model) decodeFixedScores(r *modelReader) error {
	for i := range m.SId {
		if err := r.f64(&m.SId[i], "body"); err != nil {
			return err
		}
	}
	for d := range m.SIw {
		var row SIDay
		var bitsOr uint64
		for i := range row {
			if err := r.f64(&row[i], "body"); err != nil {
				return err
			}
			bitsOr |= math.Float64bits(row[i])
		}
		m.SIw[d] = nil
		if bitsOr != 0 {
			cp := row
			m.SIw[d] = &cp
		}
	}
	return nil
}

// decodeTail reads the weights, counters and options every version
// writes, and rejects trailing garbage.
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
