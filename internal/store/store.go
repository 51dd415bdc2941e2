// Package store is a persistent content-addressed result store: a
// crash-tolerant key→value log keyed by the canonical JobSpec content hash,
// so cached simulation results survive daemon restarts and deduplicate
// across a fleet of backends.
//
// Layout: a directory of append-only segment files (`seg-00000001.log`,
// …). Every record is CRC-framed — magic, CRC-32 over the body, key and
// value lengths, then the bytes — so a torn write (crash mid-append) is
// detected on the next Open and the segment is truncated back to its
// longest valid prefix instead of poisoning later reads. Rewrites of a key
// simply append; the newest record wins and the older one becomes dead
// bytes. Segment-level operations that are not naturally append-shaped
// (compaction) go through write-temp + rename, so a crash mid-compaction
// leaves the old segments untouched and at worst a stray `*.tmp` that the
// next Open removes.
//
// The in-memory side is a flat index (key → segment/offset) rebuilt by
// scanning the segments on Open; values are read back on demand with
// ReadAt and re-verified against their CRC. Compaction rewrites the live
// records into a fresh segment and deletes the rest; it runs automatically
// once dead bytes dominate the log (and on demand in the tests, through
// their Compact).
//
// All methods are safe for concurrent use. Determinism: the store's
// contents are a pure function of the Put history — there is no
// time-based behaviour.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Record framing: magic(4) | crc(4) | klen(4) | vlen(4) | key | value,
// all fixed-width fields little-endian. The CRC covers everything after
// the crc field itself (lengths, key, value), so a corrupted length is
// caught as reliably as a corrupted payload.
const (
	recordMagic  = 0x63616453 // "cadS"
	headerSize   = 16
	segPrefix    = "seg-"
	segSuffix    = ".log"
	tmpSuffix    = ".tmp"
	segNameWidth = 8
)

// DefaultSegmentBytes is the segment rotation threshold used when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// Options parameterizes Open. The zero value selects sane defaults.
type Options struct {
	// SegmentBytes is the size threshold after which the active segment is
	// rotated (default DefaultSegmentBytes). Smaller values mean more,
	// smaller files; the threshold is checked before each append, so a
	// single oversized record still lands in one segment.
	SegmentBytes int64
	// Sync fsyncs the active segment after every Put. Off by default: the
	// store targets process-restart durability (the soak scenario), not
	// power-loss durability; compaction always syncs before its rename.
	Sync bool
	// NoAutoCompact disables the automatic compaction pass that otherwise
	// runs when dead bytes exceed both SegmentBytes and half the log.
	NoAutoCompact bool
}

// Stats is a point-in-time snapshot of the store's counters, served by the
// daemon's /v1/metrics endpoint.
type Stats struct {
	// Records is the number of live keys.
	Records int `json:"records"`
	// Segments is the number of segment files on disk.
	Segments int `json:"segments"`
	// Bytes is the total size of all segment files.
	Bytes int64 `json:"bytes"`
	// DeadBytes counts bytes held by superseded records (reclaimed by the
	// next compaction).
	DeadBytes int64 `json:"deadBytes"`
	// Puts, Gets and Hits count operations since Open (a Hit is a Get that
	// returned a value).
	Puts int64 `json:"puts"`
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	// CorruptTailBytes counts bytes discarded by recovery truncation at
	// Open (torn or corrupted record frames).
	CorruptTailBytes int64 `json:"corruptTailBytes"`
	// ReadErrors counts Gets that found an index entry but failed to read
	// a valid record back (the entry is dropped and the Get misses).
	ReadErrors int64 `json:"readErrors"`
	// Compactions counts completed compaction passes.
	Compactions int64 `json:"compactions"`
}

// recordRef locates one live record.
type recordRef struct {
	seg  int
	off  int64
	klen int
	vlen int
}

// size returns the record's on-disk footprint.
func (r recordRef) size() int64 { return headerSize + int64(r.klen) + int64(r.vlen) }

// Store is the persistent content-addressed store. Open one per directory;
// concurrent Stores over the same directory are not supported (the daemon
// owns its store exclusively).
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segs     map[int]*os.File // open handles, read (and append for active)
	activeID int
	activeSz int64
	index    map[string]recordRef
	stats    Stats
}

// Open creates the directory if needed, removes stray temp files from an
// interrupted compaction, scans every segment rebuilding the index —
// truncating each segment to its longest valid record prefix — and opens
// the newest segment for appending.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		segs:  make(map[int]*os.File),
		index: make(map[string]recordRef),
	}
	ids, err := s.scanDir()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := s.recoverSegment(id); err != nil {
			s.closeLocked()
			return nil, err
		}
	}
	if len(ids) == 0 {
		if err := s.rotateLocked(1); err != nil {
			return nil, err
		}
	} else {
		s.activeID = ids[len(ids)-1]
	}
	return s, nil
}

// scanDir lists segment IDs in ascending order and removes stray temp
// files left by a crashed compaction.
func (s *Store) scanDir() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir %s: %w", s.dir, err)
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &id); err != nil || id <= 0 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// segPath renders a segment's file name.
func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%0*d%s", segPrefix, segNameWidth, id, segSuffix))
}

// recoverSegment scans one segment, indexing every valid record and
// truncating the file at the first invalid frame.
func (s *Store) recoverSegment(id int) error {
	path := s.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: read %s: %w", path, err)
	}
	valid := int64(0)
	for off := int64(0); off < int64(len(data)); {
		klen, vlen, ok := parseRecord(data[off:])
		if !ok {
			break
		}
		ref := recordRef{seg: id, off: off, klen: klen, vlen: vlen}
		key := string(data[off+headerSize : off+headerSize+int64(klen)])
		if old, dup := s.index[key]; dup {
			s.stats.DeadBytes += old.size()
		}
		s.index[key] = ref
		off += ref.size()
		valid = off
	}
	if dropped := int64(len(data)) - valid; dropped > 0 {
		s.stats.CorruptTailBytes += dropped
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("store: truncate corrupt tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", path, err)
	}
	s.segs[id] = f
	s.activeSz = valid // only meaningful for the last (active) segment
	return nil
}

// parseRecord validates one record frame at the start of data, returning
// its key and value lengths.
func parseRecord(data []byte) (klen, vlen int, ok bool) {
	if len(data) < headerSize {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(data[0:4]) != recordMagic {
		return 0, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[4:8])
	klen = int(binary.LittleEndian.Uint32(data[8:12]))
	vlen = int(binary.LittleEndian.Uint32(data[12:16]))
	total := headerSize + klen + vlen
	if klen < 0 || vlen < 0 || total < headerSize || total > len(data) {
		return 0, 0, false
	}
	if crc32.ChecksumIEEE(data[8:total]) != crc {
		return 0, 0, false
	}
	return klen, vlen, true
}

// rotateLocked creates and activates the segment with the given ID.
// Callers hold s.mu (or have exclusive access during Open).
func (s *Store) rotateLocked(id int) error {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	s.segs[id] = f
	s.activeID = id
	s.activeSz = 0
	return nil
}

// encodeRecord frames a record into a fresh buffer.
func encodeRecord(key string, val []byte) []byte {
	buf := make([]byte, headerSize+len(key)+len(val))
	binary.LittleEndian.PutUint32(buf[0:4], recordMagic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(val)))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], val)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// Put appends the value under the key. An existing value for the key is
// superseded (last write wins); its bytes are reclaimed by compaction.
func (s *Store) Put(key string, val []byte) error {
	buf := encodeRecord(key, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs == nil {
		return fmt.Errorf("store: closed")
	}
	s.stats.Puts++
	if s.activeSz >= s.opts.SegmentBytes {
		if err := s.rotateLocked(s.activeID + 1); err != nil {
			return err
		}
	}
	f := s.segs[s.activeID]
	ref := recordRef{seg: s.activeID, off: s.activeSz, klen: len(key), vlen: len(val)}
	if _, err := f.WriteAt(buf, ref.off); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if s.opts.Sync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	s.activeSz += ref.size()
	if old, dup := s.index[key]; dup {
		s.stats.DeadBytes += old.size()
	}
	s.index[key] = ref
	if !s.opts.NoAutoCompact && s.stats.DeadBytes > s.opts.SegmentBytes && s.stats.DeadBytes > s.bytesLocked()/2 {
		return s.compactLocked()
	}
	return nil
}

// Get returns the stored value for the key. The record is re-verified
// against its CRC on the way back; a record that no longer reads valid is
// dropped from the index and reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs == nil {
		return nil, false
	}
	s.stats.Gets++
	ref, ok := s.index[key]
	if !ok {
		return nil, false
	}
	f := s.segs[ref.seg]
	buf := make([]byte, ref.size())
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		s.dropLocked(key, ref)
		return nil, false
	}
	klen, vlen, valid := parseRecord(buf)
	if !valid || klen != ref.klen || vlen != ref.vlen || string(buf[headerSize:headerSize+klen]) != key {
		s.dropLocked(key, ref)
		return nil, false
	}
	s.stats.Hits++
	return buf[headerSize+klen:], true
}

// dropLocked removes an unreadable index entry. Callers hold s.mu.
func (s *Store) dropLocked(key string, ref recordRef) {
	s.stats.ReadErrors++
	s.stats.DeadBytes += ref.size()
	delete(s.index, key)
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// bytesLocked sums the on-disk segment sizes. Callers hold s.mu.
func (s *Store) bytesLocked() int64 {
	var total int64
	for id, f := range s.segs {
		if id == s.activeID {
			total += s.activeSz
			continue
		}
		if fi, err := f.Stat(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.Segments = len(s.segs)
	st.Bytes = s.bytesLocked()
	return st
}

func (s *Store) compactLocked() error {
	newID := s.activeID + 1
	finalPath := s.segPath(newID)
	tmpPath := finalPath + tmpSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename commits

	// Deterministic output: live records in sorted key order.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	newIndex := make(map[string]recordRef, len(keys))
	off := int64(0)
	for _, key := range keys {
		ref := s.index[key]
		buf := make([]byte, ref.size())
		if _, err := s.segs[ref.seg].ReadAt(buf, ref.off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact read: %w", err)
		}
		if _, _, valid := parseRecord(buf); !valid {
			// The record rotted since it was indexed; drop it.
			s.stats.ReadErrors++
			continue
		}
		if _, err := tmp.WriteAt(buf, off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact write: %w", err)
		}
		newIndex[key] = recordRef{seg: newID, off: off, klen: ref.klen, vlen: ref.vlen}
		off += ref.size()
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := os.Rename(tmpPath, finalPath); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact rename: %w", err)
	}
	// Committed: swap in the new segment, drop the old ones.
	for id, f := range s.segs {
		f.Close()
		_ = os.Remove(s.segPath(id))
	}
	s.segs = map[int]*os.File{newID: tmp}
	s.index = newIndex
	s.activeID = newID
	s.activeSz = off
	s.stats.DeadBytes = 0
	s.stats.Compactions++
	return nil
}

// Close releases the segment file handles. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	var first error
	for _, f := range s.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	s.index = nil
	return first
}
