package lab

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wishbranch/internal/cpu"
)

func testResult() *cpu.Result {
	return &cpu.Result{Cycles: 12345, RetiredUops: 6789}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	if got := st.Get(key); got != nil {
		t.Fatal("empty store returned a result")
	}
	want := testResult()
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got := st.Get(key)
	if got == nil {
		t.Fatal("stored result not found")
	}
	if got.Cycles != want.Cycles || got.RetiredUops != want.RetiredUops {
		t.Errorf("round trip changed the result: got %+v want %+v", got, want)
	}
	if st.Get(key+"x") != nil {
		t.Error("different key served the same record")
	}
}

// FuzzStoreRecord feeds arbitrary bytes and keys to the store-record
// decoder, which reads whatever a store directory holds. It returns nil
// or a result that re-encodes under the same key to exactly the input
// bytes (the record layout has one encoding per result), and it never
// panics.
func FuzzStoreRecord(f *testing.F) {
	key := testSpec().Key()
	rec := appendBinRecord(nil, key, benchResult())
	// The whole record, then cuts inside its frame, key and header.
	for _, n := range []int{len(rec), len(rec) - 1, 12 + len(key) + 8, 12 + len(key), 12 + len(key)/2, 11, 0} {
		f.Add(rec[:n], key)
	}
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		r := decodeBinRecord(data, key)
		if r == nil {
			return
		}
		if re := appendBinRecord(nil, key, r); !bytes.Equal(re, data) {
			t.Fatalf("accepted record does not re-encode to itself:\nin:  %x\nout: %x", data, re)
		}
	})
}

func TestStoreIgnoresCorruptRecords(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	path := st.path(hashKey(key))

	corruptions := []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"garbage", func(d []byte) []byte { return []byte("not a record at all") }},
		{"empty", func(d []byte) []byte { return nil }},
		{"wrong magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"wrong store schema", func(d []byte) []byte { d[4] = 99; return d }},
		{"key length mismatch", func(d []byte) []byte { d[8]++; return d }},
		{"key mismatch", func(d []byte) []byte { d[12] ^= 0xff; return d }},
		{"corrupt result frame", func(d []byte) []byte { d[len(d)-1] ^= 0xff; d[len(d)-9] ^= 0xff; return d }},
		{"wrong codec version", func(d []byte) []byte {
			// Flip the version byte inside the embedded result frame.
			klen := int(d[8]) | int(d[9])<<8 | int(d[10])<<16 | int(d[11])<<24
			d[12+klen+2] = 0xfe
			return d
		}},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0xaa) }},
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptions {
		if err := os.WriteFile(path, c.mut(append([]byte{}, orig...)), 0o666); err != nil {
			t.Fatal(err)
		}
		if st.Get(key) != nil {
			t.Errorf("%s record was served instead of treated as a miss", c.name)
		}
	}
}

// writeLegacyJSONRecord plants a valid record in the pre-binary-codec
// v3 JSON format next to where the .bin record would go, and returns
// its path and bytes.
func writeLegacyJSONRecord(t *testing.T, st *Store, key string, r *cpu.Result) (string, []byte) {
	t.Helper()
	hash := hashKey(key)
	path := filepath.Join(filepath.Dir(st.path(hash)), hash+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(struct {
		Schema int         `json:"schema"`
		Key    string      `json:"key"`
		Result *cpu.Result `json:"result"`
	}{SchemaVersion, key, r})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestStoreReadsLegacyJSONRecords is the upgrade path for stores
// written before the binary codec: reading an old <hash>.json record
// is a miss, a fresh Put writes the .bin record that then hits, and a
// size bound still counts the leftover .json bytes and can evict them,
// so an old store cannot grow past its bound.
func TestStoreReadsLegacyJSONRecords(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	legacy, data := writeLegacyJSONRecord(t, st, key, testResult())
	old := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(legacy, old, old); err != nil {
		t.Fatal(err)
	}

	if st.Get(key) != nil {
		t.Fatal("legacy JSON record was served instead of treated as a miss")
	}
	want := testResult()
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(key); got == nil || got.Cycles != want.Cycles || got.RetiredUops != want.RetiredUops {
		t.Fatalf("Put after a legacy miss did not hit: got %+v want %+v", got, want)
	}

	binInfo, err := os.Stat(st.path(hashKey(key)))
	if err != nil {
		t.Fatal(err)
	}
	total := binInfo.Size() + int64(len(data))
	if err := st.SetMaxBytes(total); err != nil {
		t.Fatal(err)
	}
	if st.Bytes() != total {
		t.Fatalf("GC scan tracks %d bytes, want %d (the .bin plus the leftover .json)", st.Bytes(), total)
	}
	if err := st.SetMaxBytes(binInfo.Size()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Errorf("leftover .json record survived a bound that only fits the .bin: %v", err)
	}
	if st.Evictions() != 1 || st.Bytes() != binInfo.Size() {
		t.Errorf("after eviction: %d evictions, %d bytes — want 1 and %d", st.Evictions(), st.Bytes(), binInfo.Size())
	}
	if st.Get(key) == nil {
		t.Error("evicting the leftover .json took the .bin record with it")
	}
}

// TestStoreLegacyJSONCorruption: a corrupt legacy JSON record is a
// miss, never an error, and does not shadow the .bin record a later
// Put writes beside it.
func TestStoreLegacyJSONCorruption(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	path, orig := writeLegacyJSONRecord(t, st, key, testResult())
	corruptions := []struct {
		name string
		mut  func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"garbage", func(d []byte) []byte { return []byte("not json at all") }},
		{"empty", func(d []byte) []byte { return nil }},
		{"wrong schema", func(d []byte) []byte {
			return []byte(strings.Replace(string(d), `"schema":`, `"schema":9`, 1))
		}},
		{"key mismatch", func(d []byte) []byte {
			return []byte(strings.Replace(string(d), "gzip", "mcf!", 1))
		}},
		{"null result", func(d []byte) []byte {
			return []byte(strings.Replace(string(d), `"result":{`, `"result":null,"x":{`, 1))
		}},
	}
	for _, c := range corruptions {
		if err := os.WriteFile(path, c.mut(append([]byte{}, orig...)), 0o666); err != nil {
			t.Fatal(err)
		}
		if st.Get(key) != nil {
			t.Errorf("%s legacy record was served instead of treated as a miss", c.name)
		}
	}
	want := testResult()
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(key); got == nil || got.Cycles != want.Cycles {
		t.Fatalf("corrupt legacy record shadowed the .bin record: got %+v want %+v", got, want)
	}
}

// TestLabRecoversFromCorruptStore: a corrupt on-disk record must be
// treated as a miss and re-simulated — never an error, never a crash —
// and the re-simulated result must overwrite the bad record.
func TestLabRecoversFromCorruptStore(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := testSpec()
	s.Scale = 0.02
	key := s.Key()
	path := st.path(hashKey(key))
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{corrupt"), 0o666); err != nil {
		t.Fatal(err)
	}

	l := New()
	l.Store = st
	res, err := l.Result(s)
	if err != nil {
		t.Fatalf("lab did not recover from a corrupt record: %v", err)
	}
	if res == nil || res.Cycles == 0 {
		t.Fatal("recovery produced an empty result")
	}
	c := l.Counters()
	if c.Fresh != 1 || c.DiskHits != 0 {
		t.Errorf("counters = %+v, want exactly one fresh run and no disk hits", c)
	}
	// The bad record was replaced: a brand-new lab gets a disk hit.
	l2 := New()
	l2.Store = st
	if _, err := l2.Result(s); err != nil {
		t.Fatal(err)
	}
	if c := l2.Counters(); c.DiskHits != 1 || c.Fresh != 0 {
		t.Errorf("after recovery, counters = %+v, want a pure disk hit", c)
	}
}

func TestStorePutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind.
	err = filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.Contains(info.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreSchemaIsolation(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	// Records live under a schema-versioned subdirectory, so a future
	// schema bump starts from a clean namespace.
	if _, err := os.Stat(filepath.Join(dir, schemaDirName())); err != nil {
		t.Errorf("store did not shard by schema version: %v", err)
	}
}

func TestOpenStoreRejectsEmptyDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Error("OpenStore(\"\") succeeded")
	}
}

func TestDefaultDirNonEmpty(t *testing.T) {
	if DefaultDir() == "" {
		t.Error("DefaultDir returned an empty path")
	}
}

// TestStoreRecordsDeterministic: a stored record is addressed purely
// by its spec key, so its bytes must be a function of the key alone.
// cpu.Result no longer carries host-side measurements, so Put needs no
// sanitization step — a warm re-run of the same simulation must write
// byte-identical bytes.
func TestStoreRecordsDeterministic(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	path := st.path(hashKey(key))

	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A warm re-run of the same simulation: identical result.
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("re-stored record differs:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
}

// TestStorePutDurableAgainstTruncation is the fsync regression test:
// Put syncs the temp file before renaming it into place, so the crash
// window that used to exist — rename survives, data writeback doesn't,
// leaving a truncated record under the final name — cannot happen on a
// journaling filesystem. The on-disk contract that makes even a
// truncated record safe is exercised here end to end: every prefix of
// a record must decode as a miss (the corrupt-decode table's
// "truncated" row generalized), and the lab must silently re-simulate
// and repair it.
func TestStorePutDurableAgainstTruncation(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := testSpec()
	s.Scale = 0.02
	key := s.Key()
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	path := st.path(hashKey(key))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(orig) / 3, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:n], 0o666); err != nil {
			t.Fatal(err)
		}
		if st.Get(key) != nil {
			t.Fatalf("record truncated to %d bytes was served instead of treated as a miss", n)
		}
	}
	// And the lab repairs it in place.
	l := New()
	l.Store = st
	if _, err := l.Result(s); err != nil {
		t.Fatalf("lab did not recover from a truncated record: %v", err)
	}
	if c := l.Counters(); c.Fresh != 1 {
		t.Errorf("counters = %+v, want one fresh repair run", c)
	}
	if st.Get(key) == nil {
		t.Error("repair did not overwrite the truncated record")
	}
}

// TestStoreFaultPutAbortsCleanly: an injected write failure aborts the
// Put before anything touches the filesystem — no temp droppings, no
// partial record.
func TestStoreFaultPutAbortsCleanly(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.FaultPut = func(key string) error { return os.ErrPermission }
	key := testSpec().Key()
	if err := st.Put(key, testResult()); err == nil {
		t.Fatal("faulted Put reported success")
	}
	if st.Get(key) != nil {
		t.Error("faulted Put left a readable record")
	}
	err = filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.Contains(info.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
