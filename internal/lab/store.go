package lab

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"wishbranch/internal/cpu"
)

// Store is a persistent content-addressed result store: one cpu.Result
// per spec key, serialized with the binary result codec (DESIGN.md §8).
//
// Records are CRC-sealed frames appended to segment files under
// <dir>/v<SchemaVersion>/. A Store appends only to segments it created
// (seg-*.wbs: one per Store, and a new one every segmentBytes), fsyncs
// each frame before Put returns, and holds an advisory lock on its
// segments until Close, so no other process rewrites them.
// OpenStore reads every segment once into an in-memory index of
// (segment, offset, length): a Get is a map lookup plus one positioned
// read, and a miss costs no system call.
//
// A Store sees what was on disk when it was opened, plus its own puts.
// A record that another live process appends later is a miss here and
// is re-simulated, as an evicted record is.
//
// Corrupt, torn, stale or foreign-schema frames are misses and are
// re-simulated — never an error, never a crash. So are the per-record
// <xx>/<hash>.bin and .json files of older stores: the store does not
// read them, and a size bound counts them and evicts them first.
type Store struct {
	dir string

	// FaultPut, when non-nil, is consulted with the record's key
	// before every write; returning a non-nil error aborts that Put
	// with it. It is the store half of the deterministic
	// fault-injection surface (serve.Fault is the HTTP half): tests
	// force the N-th write to fail and exercise the
	// result-kept-in-memory and corrupt-entry recovery paths without
	// depending on filesystem behaviour.
	FaultPut func(key string) error

	// mu guards everything below. Get holds it for the index lookup,
	// Put for the write of a frame but not for its fsync.
	mu      sync.Mutex
	index   map[uint64]*record // maphash of the key → its newest frame
	segs    []*segment         // every segment the index points into
	active  *segment           // the segment Put appends to; nil until the first Put
	pending int                // frames written but not yet synced and indexed
	bytes   int64              // the sizes of segs
	closed  bool

	// gc is the optional size bound (gc.go); nil = unbounded.
	gc *gcState
}

// A segment is one file of frames.
type segment struct {
	f    *os.File
	name string // base name under the schema directory
	size int64  // bytes this store read or wrote
	live int64  // bytes of the frames the index points to
	mod  int64  // modification time (UnixNano) when last statted
	// locked: this store holds the file's lock (on the segments it
	// created, and on another writer's once it takes one to reclaim).
	// reclaim is decided afresh each time the bound is enforced (gc.go).
	locked, reclaim bool
}

// A record locates a key's frame; the index never holds its bytes.
type record struct {
	seg   *segment
	off   int64 // of the frame
	size  int64 // of the frame: frameOverhead + payload
	clock int64 // last access, when the store is bounded
}

// A frame seals one binary record (DESIGN.md §8):
//
//	u32 LE payload length ‖ payload ‖ u32 LE CRC-32 (IEEE) of the payload
//
// A segment is a sequence of frames. A frame whose CRC fails is
// skipped; a length that runs past the end of the file is a torn tail,
// and the segment ends there.
const frameOverhead = 8

const (
	// segmentBytes is the size past which a Store starts a new
	// segment. It bounds what one reclaim copies (gc.go); a cold
	// campaign at scale 0.02 writes about 0.64 MB.
	segmentBytes = 1 << 20
	// scanBuffer bounds the read buffer of a segment scan.
	scanBuffer = 64 << 10

	segmentPrefix, segmentExt = "seg-", ".wbs"
)

var (
	indexSeed      = maphash.MakeSeed()
	errStoreClosed = errors.New("store closed")
)

// Binary record format (DESIGN.md §14). The full key is stored
// alongside the result and the schema is checked, so a hash collision
// or a stale schema reads as a miss instead of returning the wrong
// result; anything malformed is a miss too. The result payload is the
// versioned cpu codec frame, which is what makes a warm campaign's
// store reads nearly free:
//
//	offset  size      field
//	0       4         magic "WBR1"
//	4       4         store schema (uint32 LE, = SchemaVersion)
//	8       4         key length K (uint32 LE)
//	12      K         key bytes
//	12+K    rest      cpu.Result binary frame (self-delimiting)
//
// The record is valid only if the result frame consumes the payload's
// remaining bytes exactly.
const binRecordMagic = "WBR1"

// appendBinRecord serializes a binary record.
func appendBinRecord(dst []byte, key string, r *cpu.Result) []byte {
	dst = append(dst, binRecordMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(SchemaVersion))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	return cpu.AppendResult(dst, r)
}

// splitBinRecord checks a binary record's magic, schema and key length
// and returns its key and result frame.
func splitBinRecord(data []byte) (key, result []byte, ok bool) {
	if len(data) < 12 || string(data[:4]) != binRecordMagic {
		return nil, nil, false
	}
	if binary.LittleEndian.Uint32(data[4:]) != SchemaVersion {
		return nil, nil, false
	}
	klen := binary.LittleEndian.Uint32(data[8:])
	if uint64(klen) > uint64(len(data)-12) {
		return nil, nil, false
	}
	return data[12 : 12+klen], data[12+klen:], true
}

// decodeBinRecord validates and decodes a binary record, returning nil
// on any mismatch — corrupt, truncated, foreign schema, or key
// collision all read as misses.
func decodeBinRecord(data []byte, key string) *cpu.Result {
	k, frame, ok := splitBinRecord(data)
	if !ok || string(k) != key {
		return nil
	}
	var r cpu.Result
	n, err := cpu.DecodeResult(frame, &r)
	if err != nil || n != len(frame) {
		return nil
	}
	return &r
}

// appendFrame seals key's binary record into a frame.
func appendFrame(dst []byte, key string, r *cpu.Result) []byte {
	start := len(dst)
	dst = appendBinRecord(append(dst, 0, 0, 0, 0), key, r)
	payload := dst[start+4:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// openFrame returns the payload of one whole frame, or false when its
// length prefix or CRC disagrees with its bytes.
func openFrame(b []byte) ([]byte, bool) {
	if len(b) < frameOverhead || int64(binary.LittleEndian.Uint32(b)) != int64(len(b)-frameOverhead) {
		return nil, false
	}
	payload := b[4 : len(b)-4]
	return payload, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[len(b)-4:])
}

// DefaultDir returns the default store location,
// $XDG_CACHE_HOME/wishbranch (~/.cache/wishbranch on most systems).
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return filepath.Join(os.TempDir(), "wishbranch-cache")
	}
	return filepath.Join(base, "wishbranch")
}

// OpenStore creates (if needed) and opens a store rooted at dir,
// reading every segment into the index.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("lab: empty store directory")
	}
	root := filepath.Join(dir, schemaDirName())
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("lab: open store: %w", err)
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("lab: open store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[uint64]*record)}
	for _, de := range ents {
		name := de.Name()
		if !de.Type().IsRegular() || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentExt) {
			continue
		}
		f, err := os.Open(filepath.Join(root, name))
		if err != nil {
			continue // reclaimed by another store since the listing
		}
		info, err := f.Stat()
		if err != nil || info.Size() == 0 {
			// Nothing to read or reclaim; it may be a new segment
			// whose writer has yet to append.
			f.Close()
			continue
		}
		s.segs = append(s.segs, &segment{f: f, name: name, size: info.Size(), mod: info.ModTime().UnixNano()})
		s.bytes += info.Size()
	}
	// Oldest first, so the frame indexed for a key is its newest: a
	// re-simulated record shadows the damaged one it replaced.
	sortByAge(s.segs)
	var br *bufio.Reader
	var buf []byte
	for _, seg := range s.segs {
		if br == nil {
			br = bufio.NewReaderSize(nil, int(min(seg.size, scanBuffer)))
		}
		buf = s.scan(seg, br, buf)
	}
	return s, nil
}

// sortByAge orders segments by modification time, then by name.
func sortByAge(segs []*segment) {
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].mod != segs[j].mod {
			return segs[i].mod < segs[j].mod
		}
		return segs[i].name < segs[j].name
	})
}

// scan indexes seg's frames before the store is shared, reading
// through br and growing buf to the largest frame that fits in the
// file, so a scan allocates O(file size) at most: a length prefix that
// claims more than the file holds is a torn tail, and the scan stops
// there without allocating for it. A frame whose CRC fails is skipped,
// and so is one whose payload is not a record of this schema.
func (s *Store) scan(seg *segment, br *bufio.Reader, buf []byte) []byte {
	br.Reset(io.NewSectionReader(seg.f, 0, seg.size))
	var hdr [4]byte
	for off := int64(0); seg.size-off >= frameOverhead; {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > seg.size-off-frameOverhead {
			break
		}
		if int64(cap(buf)) < n+4 {
			buf = make([]byte, n+4)
		}
		b := buf[:n+4]
		if _, err := io.ReadFull(br, b); err != nil {
			break
		}
		if crc32.ChecksumIEEE(b[:n]) == binary.LittleEndian.Uint32(b[n:]) {
			if key, _, ok := splitBinRecord(b[:n]); ok {
				s.indexLocked(maphash.Bytes(indexSeed, key), seg, off, n+frameOverhead)
			}
		}
		off += n + frameOverhead
	}
	return buf
}

// indexLocked points the index at a key's newest frame; the frame it
// replaces, if any, is dead weight until its segment is reclaimed.
func (s *Store) indexLocked(h uint64, seg *segment, off, size int64) {
	if old := s.index[h]; old != nil {
		old.seg.live -= old.size
	}
	e := &record{seg: seg, off: off, size: size}
	if s.gc != nil {
		s.gc.clock++
		e.clock = s.gc.clock
	}
	seg.live += size
	s.index[h] = e
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func schemaDirName() string { return fmt.Sprintf("v%d", SchemaVersion) }

// Get looks a key up. It returns nil on any miss: absent, unreadable,
// corrupt, schema mismatch, or key mismatch (hash collision). The
// caller just re-simulates.
func (s *Store) Get(key string) *cpu.Result {
	h := maphash.String(indexSeed, key)
	s.mu.Lock()
	e := s.index[h]
	if e == nil {
		s.mu.Unlock()
		return nil
	}
	f, off, frame := e.seg.f, e.off, make([]byte, e.size)
	bounded := s.gc != nil
	s.mu.Unlock()
	// A reclaim that closes f meanwhile turns this read into a miss.
	if _, err := f.ReadAt(frame, off); err != nil {
		return nil
	}
	payload, ok := openFrame(frame)
	if !ok {
		return nil
	}
	r := decodeBinRecord(payload, key)
	if r != nil && bounded {
		s.touch(e)
	}
	return r
}

// GetHashed is Get for callers that carry the key's content hash
// (lab.Keyed). The index is keyed by the key itself, so the hash goes
// unused.
func (s *Store) GetHashed(key, hash string) *cpu.Result { return s.Get(key) }

// Put stores a result under key, durably: the record is sealed in a
// frame, written to the store's active segment in one call, and
// fsynced before Put returns, so a crash at any point leaves either
// nothing or a whole frame (a torn one is a miss). Only then is it
// indexed: a Put that fails leaves no record this store reads, and a
// frame whose fsync failed gets a CRC that no reopen accepts. No
// sanitization is needed: cpu.Result carries no host-side
// measurements, so the stored bytes are a pure function of the spec
// key.
func (s *Store) Put(key string, r *cpu.Result) error {
	if s.FaultPut != nil {
		if err := s.FaultPut(key); err != nil {
			return fmt.Errorf("lab: store put: %w", err)
		}
	}
	frame := appendFrame(nil, key, r)
	s.mu.Lock()
	seg, off, err := s.appendLocked(frame)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("lab: store put: %w", err)
	}
	err = seg.f.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending--
	if err == nil && s.closed {
		err = errStoreClosed
	}
	if err != nil {
		s.discardLocked(seg, off, frame)
		return fmt.Errorf("lab: store put: %w", err)
	}
	s.indexLocked(maphash.String(indexSeed, key), seg, off, int64(len(frame)))
	s.fitLocked()
	return nil
}

// PutHashed is Put for callers that carry the key's content hash
// (lab.Keyed); the hash goes unused, as in GetHashed.
func (s *Store) PutHashed(key, hash string, r *cpu.Result) error { return s.Put(key, r) }

// appendLocked writes data at the end of the active segment in one
// call, first starting a segment when there is none or data would take
// the active one past segmentBytes. The bytes are not durable yet: the
// caller syncs the segment and then decrements s.pending.
func (s *Store) appendLocked(data []byte) (*segment, int64, error) {
	if s.closed {
		return nil, 0, errStoreClosed
	}
	if a := s.active; a != nil && a.size > 0 && a.size+int64(len(data)) > segmentBytes {
		s.active = nil // still read, and locked, until Close
	}
	if s.active == nil {
		seg, err := s.createSegmentLocked()
		if err != nil {
			return nil, 0, err
		}
		s.active = seg
	}
	seg := s.active
	off := seg.size
	if _, err := seg.f.WriteAt(data, off); err != nil {
		// What reached the file is a torn tail: the segment takes no
		// more frames.
		s.active = nil
		return nil, 0, err
	}
	seg.size += int64(len(data))
	s.bytes += int64(len(data))
	s.pending++
	return seg, off, nil
}

// createSegmentLocked creates, locks and links a new segment. No other
// store takes its lock first: stores pass over empty segments.
func (s *Store) createSegmentLocked() (*segment, error) {
	root := filepath.Join(s.dir, schemaDirName())
	f, err := os.CreateTemp(root, segmentPrefix+"*"+segmentExt)
	if err != nil {
		return nil, err
	}
	tryLock(f)
	if err := syncDir(root); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	seg := &segment{f: f, name: filepath.Base(f.Name()), locked: true, reclaim: true}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// discardLocked handles a frame whose fsync failed: its CRC is
// inverted (best effort), so no reopen reads it, and its segment takes
// no more frames.
func (s *Store) discardLocked(seg *segment, off int64, frame []byte) {
	end := off + int64(len(frame))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], ^binary.LittleEndian.Uint32(frame[len(frame)-4:]))
	seg.f.WriteAt(crc[:], end-4) //nolint:errcheck // best effort: the Put has failed either way
	if s.active == seg {
		s.active = nil
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the store's files and the locks on its segments. It
// writes nothing: every Put that returned was already fsynced, so a
// Store dropped without Close loses no record either, and the
// finalizers of its files close them. After Close, Gets miss and Puts
// fail. Close must not race with a Put.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	for _, seg := range s.segs {
		if cerr := seg.f.Close(); err == nil {
			err = cerr
		}
	}
	s.index, s.segs, s.active, s.closed = nil, nil, nil, true
	return err
}

func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
