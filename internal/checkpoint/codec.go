package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"

	"drowsydc/internal/metrics"
)

// Binary layout of a serialized RunState: little-endian, versioned,
// length-prefixed variable sections. The encoding is a deterministic
// function of the RunState (no maps are walked), so capture → restore →
// capture is byte-stable — the property the resume bit-identity gate
// builds on. Version 2 appends the departed-VM section; version-1
// blobs, which end after the migration ledger, still decode (with no
// departed VMs) and re-encode as version 2.
const (
	stateMagic   = 0x44724350 // "DrCP"
	stateVersion = 2
	// maxSection caps any single length prefix a decoder will honor.
	// Checkpoint bytes come from disk; a corrupt length must produce an
	// error, not an attempted multi-gigabyte allocation.
	maxSection = 1 << 30
)

// Encode serializes a RunState into a buffer of exactly its encoded
// length, allocated once.
func Encode(st *RunState) []byte {
	w := &stateWriter{buf: make([]byte, 0, encodedLen(st))}
	w.u32(stateMagic)
	w.u32(stateVersion)
	w.i64(st.Hour)
	w.i64(st.StartHour)
	w.i64(st.HorizonHours)
	w.bytes16([]byte(st.Policy))
	w.bytes32(st.PolicyState)
	w.u32(uint32(len(st.VMs)))
	for i := range st.VMs {
		v := &st.VMs[i]
		w.i32(v.ID)
		w.i32(v.Migrations)
		w.bool8(v.HasTimer)
		w.i64(v.TimerAt)
		w.bytes32(v.Model)
	}
	w.u32(uint32(len(st.Hosts)))
	for i := range st.Hosts {
		h := &st.Hosts[i]
		w.i32(h.ID)
		w.u32(uint32(len(h.VMIDs)))
		for _, id := range h.VMIDs {
			w.i32(id)
		}
		w.u8(h.PState)
		w.f64(h.Since)
		w.f64(h.Util)
		w.f64(h.Joules)
		for _, j := range h.StateJoules {
			w.f64(j)
		}
		w.f64(h.SuspSecs)
		w.f64(h.OffSecs)
		w.f64(h.TotalRef)
		w.i64(h.Transits)
		w.i64(h.Resumes)
		w.i64(h.GraceUntil)
		w.bool8(h.MonSuspended)
		w.u64(h.Decisions)
		w.u64(h.VetoGrace)
		w.u64(h.VetoBusy)
		w.i64(h.ResumedAt)
		w.bool8(h.HasWake)
		w.i64(h.WakeAt)
	}
	w.u32(uint32(len(st.Shards)))
	for i := range st.Shards {
		s := &st.Shards[i]
		w.samples(s.Latency)
		w.samples(s.WakeLatency)
		w.u64(s.ScheduledWakes)
		w.u64(s.PacketWakes)
		w.u64(s.WakeAttempts)
		w.u64(s.WakeRetries)
		w.u64(s.LostWakes)
		w.u64(s.RelayedWakes)
		w.f64(s.LostSLASeconds)
		w.f64(s.PathJoules)
		w.i64(s.EventHours)
	}
	w.bool8(st.HasNet)
	if st.HasNet {
		w.u32(uint32(len(st.NetSerials)))
		for _, v := range st.NetSerials {
			w.u64(v)
		}
	}
	w.i64(st.Migrations)
	w.f64(st.MigrationSecs)
	w.u32(uint32(len(st.Departed)))
	for _, d := range st.Departed {
		w.i32(d.ID)
		w.i32(d.Migrations)
	}
	return w.buf
}

// Fixed byte counts of Encode's layout. fixedLen is everything outside
// the VM, host and shard entries and the variable-length sections: the
// magic, the version, the three hours, the policy name's and policy
// state's length prefixes, the VM, host and shard counts, the net flag,
// the migration ledger and the departed-VM count. vmLen, hostLen and
// shardLen are one entry without its model, VM IDs or latency samples.
const (
	fixedLen = 4 + 4 + 3*8 + 2 + 4 + 3*4 + 1 + 2*8 + 4
	vmLen    = 4 + 4 + 1 + 8 + 4
	hostLen  = 4 + 4 + 1 + 3*8 + 5*8 + 3*8 + 2*8 + 8 + 1 + 3*8 + 8 + 1 + 8
	shardLen = 4 + 4 + 9*8
)

// encodedLen returns the exact length of Encode(st). It mirrors Encode
// section by section; TestEncodeExactLength checks the two agree.
func encodedLen(st *RunState) int {
	n := fixedLen + len(st.Policy) + len(st.PolicyState) + 8*len(st.Departed)
	for i := range st.VMs {
		n += vmLen + len(st.VMs[i].Model)
	}
	for i := range st.Hosts {
		n += hostLen + 4*len(st.Hosts[i].VMIDs)
	}
	for i := range st.Shards {
		n += shardLen + 16*(len(st.Shards[i].Latency)+len(st.Shards[i].WakeLatency))
	}
	if st.HasNet {
		n += 4 + 8*len(st.NetSerials)
	}
	return n
}

// Decode deserializes a RunState, rejecting truncation, bad magic,
// unknown versions, malformed sections and trailing garbage with
// descriptive errors. It never panics on any input.
func Decode(data []byte) (*RunState, error) {
	r := &stateReader{data: data}
	magic, err := r.u32("header")
	if err != nil {
		return nil, err
	}
	if magic != stateMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x (want %#x)", magic, stateMagic)
	}
	version, err := r.u32("header")
	if err != nil {
		return nil, err
	}
	if version != 1 && version != stateVersion {
		return nil, fmt.Errorf("checkpoint: unsupported state version %d (have %d)", version, stateVersion)
	}
	st := &RunState{}
	if st.Hour, err = r.i64("hour"); err != nil {
		return nil, err
	}
	if st.StartHour, err = r.i64("start hour"); err != nil {
		return nil, err
	}
	if st.HorizonHours, err = r.i64("horizon"); err != nil {
		return nil, err
	}
	pol, err := r.bytes16("policy name")
	if err != nil {
		return nil, err
	}
	st.Policy = string(pol)
	if st.PolicyState, err = r.bytes32("policy state"); err != nil {
		return nil, err
	}
	nvm, err := r.count("VM count", 18)
	if err != nil {
		return nil, err
	}
	if nvm > 0 {
		st.VMs = make([]VMState, nvm)
	}
	for i := range st.VMs {
		v := &st.VMs[i]
		if v.ID, err = r.i32("VM ID"); err != nil {
			return nil, err
		}
		if v.Migrations, err = r.i32("VM migrations"); err != nil {
			return nil, err
		}
		if v.HasTimer, err = r.bool8("VM timer flag"); err != nil {
			return nil, err
		}
		if v.TimerAt, err = r.i64("VM timer"); err != nil {
			return nil, err
		}
		if v.Model, err = r.bytes32("VM model"); err != nil {
			return nil, err
		}
	}
	nh, err := r.count("host count", 140)
	if err != nil {
		return nil, err
	}
	if nh > 0 {
		st.Hosts = make([]HostState, nh)
	}
	for i := range st.Hosts {
		h := &st.Hosts[i]
		if h.ID, err = r.i32("host ID"); err != nil {
			return nil, err
		}
		nids, err := r.count("host VM count", 4)
		if err != nil {
			return nil, err
		}
		if nids > 0 {
			h.VMIDs = make([]int32, nids)
		}
		for j := range h.VMIDs {
			if h.VMIDs[j], err = r.i32("host VM ID"); err != nil {
				return nil, err
			}
		}
		if h.PState, err = r.u8("host power state"); err != nil {
			return nil, err
		}
		if h.PState > 4 {
			return nil, fmt.Errorf("checkpoint: host %d has unknown power state %d", h.ID, h.PState)
		}
		if h.Since, err = r.f64("host since"); err != nil {
			return nil, err
		}
		if h.Util, err = r.f64("host util"); err != nil {
			return nil, err
		}
		if h.Joules, err = r.f64("host joules"); err != nil {
			return nil, err
		}
		for j := range h.StateJoules {
			if h.StateJoules[j], err = r.f64("host state joules"); err != nil {
				return nil, err
			}
		}
		if h.SuspSecs, err = r.f64("host suspended seconds"); err != nil {
			return nil, err
		}
		if h.OffSecs, err = r.f64("host off seconds"); err != nil {
			return nil, err
		}
		if h.TotalRef, err = r.f64("host time reference"); err != nil {
			return nil, err
		}
		if h.Transits, err = r.i64("host transitions"); err != nil {
			return nil, err
		}
		if h.Resumes, err = r.i64("host resumes"); err != nil {
			return nil, err
		}
		if h.GraceUntil, err = r.i64("host grace"); err != nil {
			return nil, err
		}
		if h.MonSuspended, err = r.bool8("host monitor flag"); err != nil {
			return nil, err
		}
		if h.Decisions, err = r.u64("host decisions"); err != nil {
			return nil, err
		}
		if h.VetoGrace, err = r.u64("host grace vetoes"); err != nil {
			return nil, err
		}
		if h.VetoBusy, err = r.u64("host busy vetoes"); err != nil {
			return nil, err
		}
		if h.ResumedAt, err = r.i64("host resumed-at"); err != nil {
			return nil, err
		}
		if h.HasWake, err = r.bool8("host wake flag"); err != nil {
			return nil, err
		}
		if h.WakeAt, err = r.i64("host wake date"); err != nil {
			return nil, err
		}
	}
	ns, err := r.count("shard count", 80)
	if err != nil {
		return nil, err
	}
	if ns > 0 {
		st.Shards = make([]ShardState, ns)
	}
	for i := range st.Shards {
		s := &st.Shards[i]
		if s.Latency, err = r.samples("shard latency"); err != nil {
			return nil, err
		}
		if s.WakeLatency, err = r.samples("shard wake latency"); err != nil {
			return nil, err
		}
		if s.ScheduledWakes, err = r.u64("shard scheduled wakes"); err != nil {
			return nil, err
		}
		if s.PacketWakes, err = r.u64("shard packet wakes"); err != nil {
			return nil, err
		}
		if s.WakeAttempts, err = r.u64("shard wake attempts"); err != nil {
			return nil, err
		}
		if s.WakeRetries, err = r.u64("shard wake retries"); err != nil {
			return nil, err
		}
		if s.LostWakes, err = r.u64("shard lost wakes"); err != nil {
			return nil, err
		}
		if s.RelayedWakes, err = r.u64("shard relayed wakes"); err != nil {
			return nil, err
		}
		if s.LostSLASeconds, err = r.f64("shard lost-wake SLA"); err != nil {
			return nil, err
		}
		if s.PathJoules, err = r.f64("shard wake-path joules"); err != nil {
			return nil, err
		}
		if s.EventHours, err = r.i64("shard event hours"); err != nil {
			return nil, err
		}
	}
	if st.HasNet, err = r.bool8("network flag"); err != nil {
		return nil, err
	}
	if st.HasNet {
		nser, err := r.count("serial count", 8)
		if err != nil {
			return nil, err
		}
		if nser > 0 {
			st.NetSerials = make([]uint64, nser)
		}
		for i := range st.NetSerials {
			if st.NetSerials[i], err = r.u64("attempt serial"); err != nil {
				return nil, err
			}
		}
	}
	if st.Migrations, err = r.i64("migration count"); err != nil {
		return nil, err
	}
	if st.MigrationSecs, err = r.f64("migration seconds"); err != nil {
		return nil, err
	}
	if version >= 2 {
		nd, err := r.count("departed VM count", 8)
		if err != nil {
			return nil, err
		}
		if nd > 0 {
			st.Departed = make([]DepartedVM, nd)
		}
		for i := range st.Departed {
			d := &st.Departed[i]
			if d.ID, err = r.i32("departed VM ID"); err != nil {
				return nil, err
			}
			if d.Migrations, err = r.i32("departed VM migrations"); err != nil {
				return nil, err
			}
		}
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after state", len(r.data)-r.off)
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// Writer

type stateWriter struct{ buf []byte }

func (w *stateWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *stateWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *stateWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *stateWriter) i32(v int32)  { w.u32(uint32(v)) }
func (w *stateWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *stateWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *stateWriter) bool8(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *stateWriter) bytes16(b []byte) {
	if len(b) > math.MaxUint16 {
		panic(fmt.Sprintf("checkpoint: 16-bit section of %d bytes", len(b)))
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *stateWriter) bytes32(b []byte) {
	if len(b) > maxSection {
		panic(fmt.Sprintf("checkpoint: section of %d bytes exceeds cap", len(b)))
	}
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *stateWriter) samples(s []metrics.LatencySample) {
	w.u32(uint32(len(s)))
	for _, x := range s {
		w.f64(x.Seconds)
		w.i64(x.Count)
	}
}

// ---------------------------------------------------------------------------
// Reader

type stateReader struct {
	data []byte
	off  int
}

func (r *stateReader) need(n int, what string) error {
	if r.off+n > len(r.data) {
		return fmt.Errorf("checkpoint: truncated %s at byte %d: %d bytes left, need %d",
			what, r.off, len(r.data)-r.off, n)
	}
	return nil
}

func (r *stateReader) u8(what string) (uint8, error) {
	if err := r.need(1, what); err != nil {
		return 0, err
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *stateReader) bool8(what string) (bool, error) {
	v, err := r.u8(what)
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, fmt.Errorf("checkpoint: %s has non-boolean value %d", what, v)
	}
	return v == 1, nil
}

func (r *stateReader) u32(what string) (uint32, error) {
	if err := r.need(4, what); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *stateReader) u64(what string) (uint64, error) {
	if err := r.need(8, what); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *stateReader) i32(what string) (int32, error) {
	v, err := r.u32(what)
	return int32(v), err
}

func (r *stateReader) i64(what string) (int64, error) {
	v, err := r.u64(what)
	return int64(v), err
}

func (r *stateReader) f64(what string) (float64, error) {
	v, err := r.u64(what)
	if err != nil {
		return 0, err
	}
	f := math.Float64frombits(v)
	if math.IsNaN(f) {
		return 0, fmt.Errorf("checkpoint: NaN in %s", what)
	}
	return f, nil
}

// count reads a u32 element count and bounds it by the bytes remaining
// (each element needs at least elemSize bytes), so a corrupt count
// cannot drive a giant allocation.
func (r *stateReader) count(what string, elemSize int) (int, error) {
	v, err := r.u32(what)
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || n > maxSection {
		return 0, fmt.Errorf("checkpoint: %s %d out of range", what, v)
	}
	if max := (len(r.data) - r.off) / elemSize; n > max {
		return 0, fmt.Errorf("checkpoint: %s %d exceeds the %d elements the remaining %d bytes could hold",
			what, n, max, len(r.data)-r.off)
	}
	return n, nil
}

func (r *stateReader) bytes16(what string) ([]byte, error) {
	if err := r.need(2, what); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint16(r.data[r.off:]))
	r.off += 2
	if err := r.need(n, what); err != nil {
		return nil, err
	}
	out := append([]byte(nil), r.data[r.off:r.off+n]...)
	r.off += n
	return out, nil
}

func (r *stateReader) bytes32(what string) ([]byte, error) {
	v, err := r.u32(what)
	if err != nil {
		return nil, err
	}
	n := int(v)
	if n > maxSection {
		return nil, fmt.Errorf("checkpoint: %s length %d exceeds cap", what, n)
	}
	if err := r.need(n, what); err != nil {
		return nil, err
	}
	out := append([]byte(nil), r.data[r.off:r.off+n]...)
	r.off += n
	return out, nil
}

// samples reads a latency multiset, validating what the metrics
// collector would otherwise panic on: counts must be positive, values
// non-negative and non-NaN, and values strictly increasing (the sorted
// order Export produces — also what makes re-encoding deterministic).
func (r *stateReader) samples(what string) ([]metrics.LatencySample, error) {
	n, err := r.count(what, 16)
	if err != nil {
		return nil, err
	}
	var out []metrics.LatencySample
	if n > 0 {
		out = make([]metrics.LatencySample, n)
	}
	for i := range out {
		s, err := r.f64(what)
		if err != nil {
			return nil, err
		}
		c, err := r.i64(what)
		if err != nil {
			return nil, err
		}
		if s < 0 {
			return nil, fmt.Errorf("checkpoint: negative latency %v in %s", s, what)
		}
		if c <= 0 {
			return nil, fmt.Errorf("checkpoint: non-positive count %d in %s", c, what)
		}
		if i > 0 && s <= out[i-1].Seconds {
			return nil, fmt.Errorf("checkpoint: %s values not strictly increasing (%v after %v)",
				what, s, out[i-1].Seconds)
		}
		out[i] = metrics.LatencySample{Seconds: s, Count: c}
	}
	return out, nil
}
