// Package journal is the crash-safe campaign write-ahead log behind
// wishbench -journal, which resumes a campaign that has no result
// store to resume from: an append-only file of length-prefixed,
// CRC-sealed frames recording a campaign's spec set and every
// completed result (serialized with the cpu binary result codec),
// fsync'd on append so a SIGKILL at any instant loses at most the
// frame being written — never a frame already acknowledged.
//
// The recovery contract mirrors lab.Store's corrupt-entry handling: on
// Open the file is scanned frame by frame and truncated back to the end
// of its longest valid prefix, so a torn tail (a crash mid-append) or a
// corrupted frame silently becomes "that result was never journaled"
// and the campaign re-simulates exactly the missing suffix. A resumed
// campaign therefore reproduces the uninterrupted run byte for byte:
// replayed results are the same codec frames the original run produced,
// and the missing ones are recomputed from the same specs.
//
// File layout (DESIGN.md §15):
//
//	header  = magic "WBJ1" ‖ uint32 LE format version (= FormatVersion)
//	frame   = uint32 LE payload length N ‖ payload (N bytes) ‖
//	          uint32 LE CRC-32 (IEEE) of the payload
//	payload = type byte 'S' ‖ uint32 LE count ‖ count × (uint32 LE key
//	          length ‖ key bytes)                       (spec-set frame)
//	        | type byte 'R' ‖ uint32 LE key length ‖ key bytes ‖
//	          cpu.Result binary frame                     (result frame)
//
// A result frame is valid only if the embedded cpu.Result frame
// consumes the payload's remaining bytes exactly. Appends are
// serialized and deduplicated by key, so campaign workers can call
// Append concurrently and a resumed run that re-acquires an
// already-journaled key (a memo or store hit) never writes a duplicate
// frame.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"wishbranch/internal/cpu"
)

// FormatVersion is the journal file layout version. A file carrying a
// different version is refused rather than guessed at.
const FormatVersion = 1

const (
	magic      = "WBJ1"
	headerSize = 8 // magic(4) + version(4)

	frameSpecSet = 'S'
	frameResult  = 'R'

	// maxFramePayload bounds a declared payload length so a corrupt
	// length prefix cannot make the scanner treat gigabytes of garbage
	// as one frame.
	maxFramePayload = 64 << 20
)

// Journal is an open campaign journal positioned for appending. Append
// and AppendSpecSet are safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	buf     []byte          // frame scratch, reused across appends
	seen    map[string]bool // keys already journaled (dedup)
	frames  uint64          // valid result frames in the file
	resumed uint64          // result frames replayed at Open
}

// Replay is what Open recovered from an existing journal.
type Replay struct {
	// Specs is the campaign's recorded spec-key set (the last valid
	// spec-set frame), nil if none survived.
	Specs []string
	// Results maps each journaled key to its decoded result (last write
	// wins, though Append's dedup makes duplicates impossible in files
	// this package wrote).
	Results map[string]*cpu.Result
	// Frames counts the valid result frames replayed.
	Frames int
	// TruncatedBytes is how much torn or corrupt tail Open cut off to
	// recover the longest valid prefix (0 for a clean file).
	TruncatedBytes int64
}

// Missing returns, in order, the keys of keys that the replay has no
// result for — the suffix a resumed campaign still has to simulate.
func (r *Replay) Missing(keys []string) []string {
	var out []string
	for _, k := range keys {
		if r.Results[k] == nil {
			out = append(out, k)
		}
	}
	return out
}

// CampaignPath returns the canonical journal path for a campaign
// identified by its ordered spec-key list: dir/campaign-<hash>.wbj.
// The same campaign (same keys, same order) always resumes the same
// file; a different campaign gets its own.
func CampaignPath(dir string, keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(k)))
		h.Write(n[:])
		h.Write([]byte(k))
	}
	sum := h.Sum(nil)
	return filepath.Join(dir, "campaign-"+hex.EncodeToString(sum[:8])+".wbj")
}

// Open opens (creating if absent) the journal at path, replays every
// valid frame, truncates any torn or corrupt tail back to the last
// valid frame boundary, and leaves the file positioned for appending.
// A file shorter than its header (a crash during creation) is reset; a
// file with a foreign magic or version is refused — it is not a
// journal, and clobbering it would destroy someone else's data.
func Open(path string) (*Journal, *Replay, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j := &Journal{f: f, path: path, seen: make(map[string]bool)}
	rep, err := j.recover()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, rep, nil
}

// recover scans the file, builds the replay, truncates the torn tail,
// and seeks to the end for appending.
func (j *Journal) recover() (*Replay, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", j.path, err)
	}
	rep := &Replay{Results: make(map[string]*cpu.Result)}

	if len(data) < headerSize {
		// Empty (fresh file) or a crash mid-header-write: (re)write the
		// header. Nothing after a torn header can be trusted anyway.
		if err := j.reset(); err != nil {
			return nil, err
		}
		rep.TruncatedBytes = int64(len(data))
		return rep, nil
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("journal: %s: not a journal file (bad magic)", j.path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != FormatVersion {
		return nil, fmt.Errorf("journal: %s: format version %d, want %d", j.path, v, FormatVersion)
	}

	off := headerSize
	valid := off // end of the longest valid prefix
	for {
		n, ok := scanFrame(data[off:], rep)
		if !ok {
			break
		}
		off += n
		valid = off
	}
	rep.Frames = len(rep.Results)
	j.frames = uint64(rep.Frames)
	j.resumed = j.frames
	for k := range rep.Results {
		j.seen[k] = true
	}
	if valid < len(data) {
		rep.TruncatedBytes = int64(len(data) - valid)
		if err := j.f.Truncate(int64(valid)); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", j.path, err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("journal: %s: %w", j.path, err)
		}
	}
	if _, err := j.f.Seek(int64(valid), 0); err != nil {
		return nil, fmt.Errorf("journal: %s: %w", j.path, err)
	}
	return rep, nil
}

// reset rewrites a fresh header over an empty (or torn-header) file.
func (j *Journal) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: %s: %w", j.path, err)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:], FormatVersion)
	if _, err := j.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("journal: %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %s: %w", j.path, err)
	}
	_, err := j.f.Seek(headerSize, 0)
	return err
}

// scanFrame validates and applies one frame from the front of data. ok
// is false for a torn, truncated, corrupt, or unparseable frame — the
// scan stops there and everything from that offset on is the tail to
// truncate.
func scanFrame(data []byte, rep *Replay) (n int, ok bool) {
	if len(data) < 4 {
		return 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data))
	if plen < 1 || plen > maxFramePayload || len(data) < 4+plen+4 {
		return 0, false
	}
	payload := data[4 : 4+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4+plen:]) {
		return 0, false
	}
	switch payload[0] {
	case frameSpecSet:
		specs, pok := parseSpecSet(payload[1:])
		if !pok {
			return 0, false
		}
		rep.Specs = specs
	case frameResult:
		key, res, pok := parseResult(payload[1:])
		if !pok {
			return 0, false
		}
		rep.Results[key] = res
	default:
		return 0, false
	}
	return 4 + plen + 4, true
}

func parseSpecSet(p []byte) ([]string, bool) {
	if len(p) < 4 {
		return nil, false
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if count > len(p)/4 { // every key carries a 4-byte length
		return nil, false
	}
	specs := make([]string, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 4 {
			return nil, false
		}
		klen := int(binary.LittleEndian.Uint32(p))
		if klen < 0 || len(p) < 4+klen {
			return nil, false
		}
		specs = append(specs, string(p[4:4+klen]))
		p = p[4+klen:]
	}
	return specs, len(p) == 0
}

func parseResult(p []byte) (string, *cpu.Result, bool) {
	if len(p) < 4 {
		return "", nil, false
	}
	klen := int(binary.LittleEndian.Uint32(p))
	if klen < 0 || len(p) < 4+klen {
		return "", nil, false
	}
	key := string(p[4 : 4+klen])
	p = p[4+klen:]
	var r cpu.Result
	n, err := cpu.DecodeResult(p, &r)
	if err != nil || n != len(p) {
		return "", nil, false
	}
	return key, &r, true
}

// AppendSpecSet journals the campaign's ordered spec-key set. Callers
// write it once, when Open's replay carried no spec set.
func (j *Journal) AppendSpecSet(keys []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = j.buf[:0]
	j.buf = append(j.buf, frameSpecSet)
	j.buf = binary.LittleEndian.AppendUint32(j.buf, uint32(len(keys)))
	for _, k := range keys {
		j.buf = binary.LittleEndian.AppendUint32(j.buf, uint32(len(k)))
		j.buf = append(j.buf, k...)
	}
	return j.appendFrameLocked()
}

// Append journals one completed result, fsync'd before returning, so a
// crash after Append never loses it. Appending a key already in the
// journal is a no-op — resume glue can blindly journal every completed
// acquisition without writing duplicates.
func (j *Journal) Append(key string, r *cpu.Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seen[key] {
		return nil
	}
	j.buf = j.buf[:0]
	j.buf = append(j.buf, frameResult)
	j.buf = binary.LittleEndian.AppendUint32(j.buf, uint32(len(key)))
	j.buf = append(j.buf, key...)
	j.buf = cpu.AppendResult(j.buf, r)
	if err := j.appendFrameLocked(); err != nil {
		return err
	}
	j.seen[key] = true
	j.frames++
	return nil
}

// appendFrameLocked seals j.buf (the payload) into a frame and writes
// it durably: one write of length ‖ payload ‖ CRC, then fsync. A crash
// between the write and the sync — or a write torn by the kernel — is
// exactly what Open's longest-valid-prefix recovery handles.
func (j *Journal) appendFrameLocked() error {
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(j.buf)))
	frame = append(frame, j.buf...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(j.buf))
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	return nil
}

// Stats returns the journal's frame counters: result frames currently
// in the file and the subset that was replayed (rather than appended)
// by this process — the resumed_frames figure CI asserts on.
func (j *Journal) Stats() (frames, resumed uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.frames, j.resumed
}

// Close closes the journal file. Appends are already durable; Close
// releases the descriptor.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
