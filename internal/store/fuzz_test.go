package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreSegment drives the segment decoder with arbitrary file contents:
// the input is written as the only segment of a fresh directory and Open
// recovers it. For every input:
//
//   - Open succeeds;
//   - the recovered keys and values are exactly those of the longest prefix
//     of frames parseRecord accepts (last write wins), and each accepted
//     frame is byte-for-byte encodeRecord of its key and value;
//   - Stats().CorruptTailBytes is the length of the rest;
//   - after a Put, a Close and a reopen, the new key reads back and no
//     corrupt tail is found.
//
// Every input costs one Open and one reopen, which keeps minimization
// affordable. The checked-in corpus is under testdata/fuzz/FuzzStoreSegment/.
func FuzzStoreSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := make(map[string][]byte)
		valid := 0
		for valid < len(data) {
			klen, vlen, ok := parseRecord(data[valid:])
			if !ok {
				break
			}
			frame := data[valid : valid+headerSize+klen+vlen]
			key, val := string(frame[headerSize:headerSize+klen]), frame[headerSize+klen:]
			if !bytes.Equal(frame, encodeRecord(key, val)) {
				t.Fatalf("accepted frame at offset %d is not encodeRecord of its key and value", valid)
			}
			want[key] = val
			valid += len(frame)
		}

		opts := Options{NoAutoCompact: true}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if got, rest := s.Stats().CorruptTailBytes, int64(len(data)-valid); got != rest {
			t.Fatalf("CorruptTailBytes = %d, want %d (valid prefix %d of %d bytes)", got, rest, valid, len(data))
		}
		if s.Len() != len(want) {
			t.Fatalf("recovered %d keys, want %d", s.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %q: got %q (found %v), want %q", k, got, ok, v)
			}
		}

		probe := "probe"
		for _, taken := want[probe]; taken; _, taken = want[probe] {
			probe += "+"
		}
		if err := s.Put(probe, []byte("value")); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		s = reopen(t, s, dir, opts)
		defer s.Close()
		if got := s.Stats().CorruptTailBytes; got != 0 {
			t.Fatalf("reopen after recovery found a %d-byte corrupt tail", got)
		}
		if got, ok := s.Get(probe); !ok || string(got) != "value" {
			t.Fatalf("probe key after reopen: got %q (found %v)", got, ok)
		}
	})
}
