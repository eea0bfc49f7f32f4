package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"
)

// FuzzCheckpointDecode drives Decode with arbitrary bytes: it must
// never panic, and any accepted current-version input must re-encode to
// exactly the bytes that were decoded (the codec has no redundant
// encodings, so decode∘encode is the identity on valid data). An
// accepted version-1 input re-encodes as the current version, which
// must decode to the same state.
func FuzzCheckpointDecode(f *testing.F) {
	good := Encode(sampleState())
	v1, err := os.ReadFile("testdata/state-v1.drcp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(Encode(&RunState{Policy: "neat"}))
	f.Add([]byte{})
	f.Add(good[:8])
	f.Add(good[:len(good)-1])
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if st != nil {
				t.Fatal("error with non-nil state")
			}
			if err.Error() == "" {
				t.Fatal("empty error text")
			}
			return
		}
		enc := Encode(st)
		if binary.LittleEndian.Uint32(data[4:]) == stateVersion {
			if !bytes.Equal(enc, data) {
				t.Fatal("accepted input does not re-encode to itself")
			}
			return
		}
		again, err := Decode(enc)
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("version-1 input does not survive re-encoding: %v", err)
		}
	})
}

// FuzzJournalReplay drives ReplayJournal with arbitrary bytes: never a
// panic, never a pending entry recovered from anything but an intact
// CRC-framed prefix, always a descriptive error on rejection.
func FuzzJournalReplay(f *testing.F) {
	j, _, path := func() (*Journal, *Replay, string) {
		dir := f.TempDir()
		j, rp, err := OpenJournal(dir + "/seed.journal")
		if err != nil {
			f.Fatal(err)
		}
		return j, rp, dir + "/seed.journal"
	}()
	j.Admit(Entry{Key: "a", Kind: "run", Spec: []byte(`{"family":"micro-dc"}`)})
	j.Admit(Entry{Key: "b", Kind: "sweep", Spec: []byte(`{}`)})
	j.Complete("a")
	j.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add(seed[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := ReplayJournal(data)
		if err != nil {
			if rp != nil {
				t.Fatal("error with non-nil replay")
			}
			if err.Error() == "" {
				t.Fatal("empty error text")
			}
			return
		}
		if rp.GoodBytes > int64(len(data)) {
			t.Fatalf("good bytes %d beyond input length %d", rp.GoodBytes, len(data))
		}
		for _, e := range rp.Pending {
			if e.Key == "" {
				t.Fatal("pending entry with empty key")
			}
		}
		// Replaying the intact prefix again must agree exactly: replay
		// is deterministic and truncation-stable at GoodBytes.
		again, err := ReplayJournal(data[:rp.GoodBytes])
		if err != nil {
			t.Fatalf("replay of intact prefix failed: %v", err)
		}
		if len(again.Pending) != len(rp.Pending) {
			t.Fatalf("prefix replay pending %d, want %d", len(again.Pending), len(rp.Pending))
		}
	})
}
