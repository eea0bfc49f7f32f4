package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"drowsydc/internal/simtime"
)

// codecMagic and the codec versions guard the binary format of a
// serialized idleness model. Run checkpoints (internal/checkpoint) carry
// each VM's model in it.
//
// Version 1 is the dense layout: all 12 SI_y month tables written
// unconditionally (unallocated months as zeros) — 79 KB per model
// regardless of how much of the year was observed. Version 2 keeps the
// same header/tail but encodes SI_y sparsely behind a month-presence
// bitmap, so a model that has only seen a few months costs a few KB.
// Both write the SI_m table in full, an unallocated one as zeros, and
// decode an all-zero table or month row as unallocated, which reads the
// same.
// That sparsity is what makes month-boundary run checkpoints feasible at
// fleet scale (65,536 VMs × 79 KB would be 5 GB per checkpoint; sparse
// models early in a run are ~8 KB). Encoding always emits version 2;
// decoding accepts both.
const (
	codecMagic         = 0x44724459 // "DrDY"
	codecVersionDense  = 1
	codecVersionSparse = 2
)

// scoresPerMonth is the size of one SI_y month table.
const scoresPerMonth = simtime.HoursPerDay * simtime.DaysPerMonth

// denseScores is the number of SI values outside SI_y:
// 24 SI_d + 24×7 SI_w + 24×31 SI_m.
const denseScores = simtime.HoursPerDay +
	simtime.HoursPerDay*simtime.DaysPerWeek +
	simtime.HoursPerDay*simtime.DaysPerMonth

// tailValues counts the fixed values after the score tables: the 4
// weights, activeSum, activeCount, hoursObserved, hoursIdle and the
// three option fields.
const tailValues = NumScales + 8

// MarshalBinary encodes the model in the sparse little-endian version-2
// layout. An SI_y month is written only when its table is allocated and
// carries at least one non-zero score; the decoder leaves absent months
// nil. All-zero allocated months are canonicalized to "absent" so that
// encode∘decode∘encode is a fixed point — checkpoint re-encodes of a
// restored model are byte-identical to the original capture.
func (m *Model) MarshalBinary() ([]byte, error) {
	months := 0
	var present uint16
	for mo, row := range m.SIy {
		if row == nil || rowIsZero(row) {
			continue
		}
		present |= 1 << uint(mo)
		months++
	}
	buf := make([]byte, 0, 10+8*(denseScores+months*scoresPerMonth+tailValues))
	buf = binary.LittleEndian.AppendUint32(buf, codecMagic)
	buf = binary.LittleEndian.AppendUint32(buf, codecVersionSparse)
	for _, v := range m.SId {
		buf = appendF(buf, v)
	}
	for d := range m.SIw {
		for _, v := range m.SIw[d] {
			buf = appendF(buf, v)
		}
	}
	buf = appendMonth(buf, m.SIm)
	buf = binary.LittleEndian.AppendUint16(buf, present)
	for mo, row := range m.SIy {
		if present&(1<<uint(mo)) != 0 {
			buf = appendMonth(buf, row)
		}
	}
	for _, v := range m.W {
		buf = appendF(buf, v)
	}
	buf = appendF(buf, m.activeSum)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.activeCount))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.hoursObserved))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.hoursIdle))
	buf = appendF(buf, m.opts.NoiseFloor)
	buf = appendF(buf, m.opts.DescentRate)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.opts.DescentSteps))
	return buf, nil
}

func appendF(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendMonth appends a month table's scores; a nil table, which reads
// as all zeros, writes zeros.
func appendMonth(buf []byte, t *SIMonth) []byte {
	if t == nil {
		t = new(SIMonth)
	}
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

// UnmarshalBinary decodes a model previously encoded by MarshalBinary —
// either the dense version-1 layout or the sparse version-2 one.
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
	case codecVersionSparse:
		return m.unmarshalSparse(data[8:])
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

// unmarshalSparse decodes the version-2 body (after magic+version).
func (m *Model) unmarshalSparse(body []byte) error {
	// The decoded scores and weights replace the current ones; drop the
	// IP memoized from them.
	m.memoHour = 0
	r := &modelReader{data: body}
	if err := m.decodeDenseScores(r); err != nil {
		return err
	}
	var present uint16
	if err := r.u16(&present, "body"); err != nil {
		return err
	}
	if present>>simtime.MonthsPerYear != 0 {
		return fmt.Errorf("core: month bitmap %#x has bits beyond month %d", present, simtime.MonthsPerYear-1)
	}
	for mo := range m.SIy {
		if present&(1<<uint(mo)) == 0 {
			m.SIy[mo] = nil
			continue
		}
		row, err := r.month()
		if err != nil {
			return err
		}
		if row == nil {
			return fmt.Errorf("core: month %d marked present but all-zero", mo)
		}
		m.SIy[mo] = row
	}
	return m.decodeTail(r)
}

// unmarshalDense decodes the legacy version-1 body: every SI_y month
// written unconditionally, all-zero months restored as nil to preserve
// allocation laziness.
func (m *Model) unmarshalDense(body []byte) error {
	m.memoHour = 0
	r := &modelReader{data: body}
	if err := m.decodeDenseScores(r); err != nil {
		return err
	}
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

// decodeDenseScores reads the always-present SI_d/SI_w/SI_m tables.
func (m *Model) decodeDenseScores(r *modelReader) error {
	for i := range m.SId {
		if err := r.f64(&m.SId[i], "body"); err != nil {
			return err
		}
	}
	for d := range m.SIw {
		for i := range m.SIw[d] {
			if err := r.f64(&m.SIw[d][i], "body"); err != nil {
				return err
			}
		}
	}
	t, err := r.month()
	m.SIm = t
	return err
}

// decodeTail reads the weights, counters and options shared by both
// versions, and rejects trailing garbage.
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

// marshalDense encodes the legacy dense version-1 layout. It exists so
// the codec tests can pin cross-version compatibility without keeping
// frozen byte fixtures.
func (m *Model) marshalDense() ([]byte, error) {
	totalScores := denseScores + scoresPerMonth*simtime.MonthsPerYear
	buf := bytes.NewBuffer(make([]byte, 0, 16+8*(totalScores+NumScales+4)))
	var head = []uint32{codecMagic, codecVersionDense}
	for _, v := range head {
		if err := binary.Write(buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	writeF := func(v float64) { _ = binary.Write(buf, binary.LittleEndian, v) }
	for _, v := range m.SId {
		writeF(v)
	}
	for d := range m.SIw {
		for _, v := range m.SIw[d] {
			writeF(v)
		}
	}
	tables := appendMonth(nil, m.SIm)
	for _, row := range m.SIy {
		tables = appendMonth(tables, row)
	}
	buf.Write(tables)
	for _, v := range m.W {
		writeF(v)
	}
	writeF(m.activeSum)
	_ = binary.Write(buf, binary.LittleEndian, m.activeCount)
	_ = binary.Write(buf, binary.LittleEndian, m.hoursObserved)
	_ = binary.Write(buf, binary.LittleEndian, m.hoursIdle)
	writeF(m.opts.NoiseFloor)
	writeF(m.opts.DescentRate)
	_ = binary.Write(buf, binary.LittleEndian, int64(m.opts.DescentSteps))
	return buf.Bytes(), nil
}
