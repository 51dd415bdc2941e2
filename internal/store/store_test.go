package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// reopen closes the store and opens the same directory again, as a daemon
// restart would.
func reopen(t *testing.T, s *Store, dir string, opts Options) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return s2
}

// segFiles lists the segment files in dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestPutGetRestart is the core persistence contract: values written
// before a restart are served after it, byte-for-byte, including
// overwrites (last write wins) and values spread across rotated segments.
func TestPutGetRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256} // force rotations
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("hash-%03d", i%40) // 40 keys, 60 overwrites
		val := []byte(fmt.Sprintf("result-%d-%s", i, bytes.Repeat([]byte{'x'}, i)))
		if err := s.Put(key, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[key] = val
	}
	check := func(s *Store) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("Len=%d, want %d", s.Len(), len(want))
		}
		for key, val := range want {
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, val) {
				t.Fatalf("Get(%s) = %q, %v; want %q", key, got, ok, val)
			}
		}
		if _, ok := s.Get("absent"); ok {
			t.Fatal("Get(absent) hit")
		}
	}
	check(s)
	if n := len(segFiles(t, dir)); n < 2 {
		t.Fatalf("expected rotated segments, have %d file(s)", n)
	}

	s = reopen(t, s, dir, opts)
	defer s.Close()
	check(s)
	st := s.Stats()
	if st.Hits == 0 || st.Records != len(want) || st.CorruptTailBytes != 0 {
		t.Fatalf("stats after clean restart: %+v", st)
	}
}

// TestCrashMidWriteRecovery simulates a crash mid-append: the last record
// is physically truncated to a partial frame. Open must recover every
// earlier record and discard the torn tail, and the store must keep
// accepting writes afterwards.
func TestCrashMidWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 1 << 20}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the segment mid-way through the last record.
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %v", segs)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, opts)
	if err != nil {
		t.Fatalf("open after torn write: %v", err)
	}
	defer s.Close()
	for i := 0; i < 9; i++ {
		if v, ok := s.Get(fmt.Sprintf("k%d", i)); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d lost after recovery: %q, %v", i, v, ok)
		}
	}
	if _, ok := s.Get("k9"); ok {
		t.Fatal("torn record served as if intact")
	}
	if st := s.Stats(); st.CorruptTailBytes == 0 {
		t.Fatalf("recovery did not report the torn tail: %+v", st)
	}
	// The log must stay appendable at the truncation point.
	if err := s.Put("k9", []byte("v9-rewritten")); err != nil {
		t.Fatal(err)
	}
	s = reopen(t, s, dir, opts)
	defer s.Close()
	if v, ok := s.Get("k9"); !ok || string(v) != "v9-rewritten" {
		t.Fatalf("post-recovery append lost: %q, %v", v, ok)
	}
}

// TestCorruptedSegmentQuick is the corruption property test: flipping any
// single byte of the log must never make Open fail or panic, and every
// record before the corruption point must survive.
func TestCorruptedSegmentQuick(t *testing.T) {
	const records = 20
	vals := func(i int) (string, []byte) {
		return fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte{byte('a' + i%26)}, 5+i)
	}
	build := func(dir string) string {
		s, err := Open(dir, Options{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			k, v := vals(i)
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return segFiles(t, dir)[0]
	}

	refDir := t.TempDir()
	refSeg := build(refDir)
	pristine, err := os.ReadFile(refSeg)
	if err != nil {
		t.Fatal(err)
	}

	// recordStart[i] is the offset where record i begins.
	recordStart := make([]int64, records)
	off := int64(0)
	for i := 0; i < records; i++ {
		recordStart[i] = off
		klen, vlen, ok := parseRecord(pristine[off:])
		if !ok {
			t.Fatalf("pristine log unreadable at record %d", i)
		}
		off += headerSize + int64(klen) + int64(vlen)
	}

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pos := rng.Intn(len(pristine))
		flip := byte(1 + rng.Intn(255)) // guaranteed to change the byte

		dir := t.TempDir()
		data := append([]byte(nil), pristine...)
		data[pos] ^= flip
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(refSeg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{SegmentBytes: 1 << 20})
		if err != nil {
			t.Logf("seed %d: open failed: %v", seed, err)
			return false
		}
		defer s.Close()

		// Every record strictly before the corrupted one must be intact.
		// (Recovery keeps the longest valid prefix, so records at or after
		// the flipped byte may legitimately be gone.)
		for i := 0; i < records; i++ {
			end := off
			if i+1 < records {
				end = recordStart[i+1]
			}
			if end > int64(pos) {
				break
			}
			k, v := vals(i)
			got, ok := s.Get(k)
			if !ok || !bytes.Equal(got, v) {
				t.Logf("seed %d: record %d (before corruption at %d) lost", seed, i, pos)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadWrite hammers the store from concurrent writers and
// readers; run under -race this is the data-race regression for the
// single-mutex contract.
func TestConcurrentReadWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, keysPer = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPer; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := s.Put(key, []byte(key+"-val")); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				if v, ok := s.Get(key); !ok || string(v) != key+"-val" {
					t.Errorf("read-own-write %s: %q, %v", key, v, ok)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // concurrent readers over the whole key space
			defer wg.Done()
			for i := 0; i < keysPer; i++ {
				for o := 0; o < writers; o++ {
					key := fmt.Sprintf("w%d-k%d", o, i)
					if v, ok := s.Get(key); ok && string(v) != key+"-val" {
						t.Errorf("torn read %s: %q", key, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*keysPer {
		t.Fatalf("Len=%d, want %d", s.Len(), writers*keysPer)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != writers*keysPer {
		t.Fatalf("Len after compaction=%d, want %d", s.Len(), writers*keysPer)
	}
}

// TestCompaction verifies that compaction reclaims superseded records,
// survives a restart, and that a crash mid-compaction (a stray temp file)
// is cleaned up by the next Open.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 128, NoAutoCompact: true}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put("churn", []byte(fmt.Sprintf("version-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("stable", []byte("unchanging")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.DeadBytes == 0 || before.Segments < 2 {
		t.Fatalf("overwrites produced no dead bytes / rotations: %+v", before)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.DeadBytes != 0 || after.Segments != 1 || after.Bytes >= before.Bytes || after.Compactions != 1 {
		t.Fatalf("compaction ineffective: before %+v after %+v", before, after)
	}
	if v, ok := s.Get("churn"); !ok || string(v) != "version-49" {
		t.Fatalf("churn after compaction: %q, %v", v, ok)
	}
	if v, ok := s.Get("stable"); !ok || string(v) != "unchanging" {
		t.Fatalf("stable after compaction: %q, %v", v, ok)
	}

	// Stray temp file from a "crashed" compaction is removed on Open.
	tmp := filepath.Join(dir, segPrefix+"99999999"+segSuffix+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = reopen(t, s, dir, opts)
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray compaction temp file survived Open: %v", err)
	}
	if v, ok := s.Get("churn"); !ok || string(v) != "version-49" {
		t.Fatalf("churn after restart: %q, %v", v, ok)
	}
}

// TestAutoCompaction verifies the dead-bytes trigger: overwriting one key
// far past the segment threshold compacts the log without an explicit
// Compact call.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte{'v'}, 64)
	for i := 0; i < 200; i++ {
		if err := s.Put("hot", val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("auto-compaction never ran: %+v", st)
	}
	if st.Bytes > 4*512 {
		t.Fatalf("log did not stay bounded: %+v", st)
	}
}

// Compact rewrites all live records into a single fresh segment (built as
// a temp file, synced, then renamed into place) and deletes the old
// segments, reclaiming dead bytes. A crash mid-compaction is harmless: the
// rename is the commit point and the next Open removes stray temp files.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs == nil {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}
