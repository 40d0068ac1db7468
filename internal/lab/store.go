package lab

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"wishbranch/internal/cpu"
)

// Store is a persistent content-addressed result store. Each record is
// one cpu.Result serialized with the binary result codec under the
// SHA-256 of its spec key, written atomically (temp file + rename).
// Corrupt, stale, or foreign-schema records are treated as misses and
// re-simulated — never an error, never a crash. So are the JSON records
// written before the binary codec: the store is advisory, so an old
// <hash>.json record is simply re-simulated (and still counts against
// a size bound until evicted).
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

	// gc is the optional size-bound state (see gc.go). Zero value =
	// unbounded, no tracking.
	gc storeGC
}

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
// The record is valid only if the result frame consumes the file's
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

// decodeBinRecord validates and decodes a binary record, returning nil
// on any mismatch — corrupt, truncated, foreign schema, or key
// collision all read as misses.
func decodeBinRecord(data []byte, key string) *cpu.Result {
	if len(data) < 12 || string(data[:4]) != binRecordMagic {
		return nil
	}
	if binary.LittleEndian.Uint32(data[4:]) != SchemaVersion {
		return nil
	}
	klen := int(binary.LittleEndian.Uint32(data[8:]))
	if klen != len(key) || len(data) < 12+klen || string(data[12:12+klen]) != key {
		return nil
	}
	var r cpu.Result
	n, err := cpu.DecodeResult(data[12+klen:], &r)
	if err != nil || 12+klen+n != len(data) {
		return nil
	}
	return &r
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

// OpenStore creates (if needed) and opens a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("lab: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, schemaDirName()), 0o777); err != nil {
		return nil, fmt.Errorf("lab: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func schemaDirName() string { return fmt.Sprintf("v%d", SchemaVersion) }

// path shards records by the first byte of the hash to keep directory
// fan-out sane for large campaigns.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, schemaDirName(), hash[:2], hash+".bin")
}

// Get looks a key up. It returns nil on any miss: absent, unreadable,
// corrupt, schema mismatch, or key mismatch (hash collision). The
// caller just re-simulates.
func (s *Store) Get(key string) *cpu.Result {
	return s.GetHashed(key, hashKey(key))
}

// GetHashed is Get with a precomputed content hash (= hashKey(key),
// pinned by TestKeyedMatchesKey), sparing hot callers the SHA-256.
func (s *Store) GetHashed(key, hash string) *cpu.Result {
	path := s.path(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	r := decodeBinRecord(data, key)
	if r != nil {
		s.touch(path)
	}
	return r
}

// Put stores a result under key, atomically and durably: the record is
// fully written to a temporary file in the destination directory,
// fsynced, and then renamed into place, so a concurrent reader (or a
// crash at any point) sees either nothing or a complete record. The
// fsync before the rename matters: without it a crash after the rename
// but before writeback could leave a truncated file under the final
// name — exactly the truncated-but-renamed corruption the decode table
// in store_test.go guards against. No sanitization is needed:
// cpu.Result carries no host-side measurements, so the stored bytes
// are a pure function of the spec key.
func (s *Store) Put(key string, r *cpu.Result) error {
	return s.PutHashed(key, hashKey(key), r)
}

// PutHashed is Put with a precomputed content hash (= hashKey(key)).
func (s *Store) PutHashed(key, hash string, r *cpu.Result) error {
	if s.FaultPut != nil {
		if err := s.FaultPut(key); err != nil {
			return fmt.Errorf("lab: store put: %w", err)
		}
	}
	dst := s.path(hash)
	if err := os.MkdirAll(filepath.Dir(dst), 0o777); err != nil {
		return fmt.Errorf("lab: store put: %w", err)
	}
	data := appendBinRecord(nil, key, r)
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+hash+".tmp-*")
	if err != nil {
		return fmt.Errorf("lab: store put: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("lab: store put: %w", werr)
	}
	s.account(dst, int64(len(data)))
	return nil
}

func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
