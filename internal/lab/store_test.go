package lab

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wishbranch/internal/cpu"
)

func testResult() *cpu.Result {
	return &cpu.Result{Cycles: 12345, RetiredUops: 6789}
}

// openStore opens the store at dir and closes it when the test ends.
func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// frameOf locates key's frame: its segment file, offset and size.
func frameOf(t testing.TB, st *Store, key string) (path string, off, size int64) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.index[maphash.String(indexSeed, key)]
	if e == nil {
		t.Fatalf("no frame indexed for %q", key)
	}
	return filepath.Join(st.dir, schemaDirName(), e.seg.name), e.off, e.size
}

// sealFrame frames an arbitrary payload as Put does a record.
func sealFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// schemaFiles returns the files under dir's schema directory and the
// sum of their sizes.
func schemaFiles(t testing.TB, dir string) (paths []string, total int64) {
	t.Helper()
	err := filepath.WalkDir(filepath.Join(dir, schemaDirName()), func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		paths = append(paths, p)
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths, total
}

// writeSegment replaces every file under dir's schema directory with
// one segment holding data.
func writeSegment(t testing.TB, dir string, data []byte) string {
	t.Helper()
	root := filepath.Join(dir, schemaDirName())
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(root, 0o777); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, segmentPrefix+"test"+segmentExt)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	key := testSpec().Key()
	if got := st.Get(key); got != nil {
		t.Fatal("empty store returned a result")
	}
	want := testResult()
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"writer": st, "reopened": openStore(t, dir)} {
		got := s.Get(key)
		if got == nil {
			t.Fatalf("%s: stored result not found", name)
		}
		if got.Cycles != want.Cycles || got.RetiredUops != want.RetiredUops {
			t.Errorf("%s: round trip changed the result: got %+v want %+v", name, got, want)
		}
		if s.Get(key+"x") != nil {
			t.Errorf("%s: different key served the same record", name)
		}
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

// FuzzStoreSegment writes arbitrary bytes as a store's one segment and
// opens the store, which is what OpenStore does with whatever a store
// directory holds, then looks keys up. It never panics, and every
// record the store serves re-encodes under its key to exactly the
// payload of the frame it was read from.
//
// Allocation bound: the scan reads through a buffer of at most 64 KiB
// and never more than the file's size, and grows one frame buffer to
// the largest frame that fits in the file. A length prefix that claims
// more than the file holds is a torn tail and allocates nothing, so
// opening any segment costs O(file size) bytes
// (TestStoreScanAllocationBound).
func FuzzStoreSegment(f *testing.F) {
	key := testSpec().Key()
	one := appendFrame(nil, key, benchResult())
	two := appendFrame(append([]byte{}, one...), gcKey(1), gcResult(1))
	flipped := append([]byte{}, two...)
	flipped[len(one)/2] ^= 0xff
	for _, seed := range [][]byte{
		two, two[:len(two)-1], one[:len(one)/2], flipped,
		{0xff, 0xff, 0xff, 0x7f, 'W', 'B', 'R', '1'}, // claims 2 GiB
		make([]byte, frameOverhead),                  // an empty frame
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeSegment(t, dir, data)
		st := openStore(t, dir)
		for _, k := range []string{key, gcKey(1), ""} {
			st.Get(k)
		}
		for _, e := range st.index {
			payload, ok := openFrame(data[e.off : e.off+e.size])
			if !ok {
				t.Fatalf("indexed frame at %d fails its length or CRC check", e.off)
			}
			k, _, ok := splitBinRecord(payload)
			if !ok {
				t.Fatalf("indexed frame at %d holds no record", e.off)
			}
			r := st.Get(string(k))
			if r == nil {
				continue
			}
			if re := appendBinRecord(nil, string(k), r); !bytes.Equal(re, payload) {
				t.Fatalf("served record does not re-encode to its payload:\nin:  %x\nout: %x", payload, re)
			}
		}
	})
}

// TestStoreScanAllocationBound pins FuzzStoreSegment's allocation
// bound: a segment whose length prefixes claim gigabytes costs the
// scan next to nothing.
func TestStoreScanAllocationBound(t *testing.T) {
	frame := appendFrame(nil, gcKey(0), gcResult(0))
	for name, data := range map[string][]byte{
		"lone claim":        {0xf0, 0xff, 0xff, 0xff, 'W', 'B', 'R', '1', 0, 0, 0, 0},
		"claim after frame": append(append([]byte{}, frame...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0),
	} {
		dir := t.TempDir()
		writeSegment(t, dir, data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := OpenStore(dir)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: opening a %d-byte segment allocated %d bytes", name, len(data), got)
		}
	}
}

// TestStoreIgnoresCorruptRecords applies each corruption to the record
// inside its segment. Resealed with a valid CRC, the record checks
// reject it, both in the store that wrote it (corruption after open)
// and in a reopened one; left under its old CRC, the CRC rejects it.
func TestStoreIgnoresCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	key := testSpec().Key()
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	path, off, size := frameOf(t, st, key)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := seg[off : off+size]
	orig := frame[4 : size-4]

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
	miss := func(how string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		if st.Get(key) != nil {
			t.Errorf("%s: served by the store that wrote it", how)
		}
		reopened, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if reopened.Get(key) != nil {
			t.Errorf("%s: served after a reopen", how)
		}
		reopened.Close()
	}
	for _, c := range corruptions {
		rec := c.mut(append([]byte{}, orig...))
		miss(c.name+" record under a valid CRC", sealFrame(rec))
		if len(rec) == len(orig) {
			stale := append(append(append([]byte{}, frame[:4]...), rec...), frame[size-4:]...)
			miss(c.name+" record under its old CRC", stale)
		}
	}
}

// writeLegacyRecord plants a valid record in the layout of an older
// store, one file per record at v3/<hash[:2]>/<hash>.<ext>: "json" is
// the record before the binary codec, "bin" the binary record before
// segments. It returns the file's path and bytes.
func writeLegacyRecord(t *testing.T, dir, key string, r *cpu.Result, ext string) (string, []byte) {
	t.Helper()
	hash := hashKey(key)
	path := filepath.Join(dir, schemaDirName(), hash[:2], hash+"."+ext)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	data := appendBinRecord(nil, key, r)
	if ext == "json" {
		var err error
		data, err = json.Marshal(struct {
			Schema int         `json:"schema"`
			Key    string      `json:"key"`
			Result *cpu.Result `json:"result"`
		}{SchemaVersion, key, r})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestStoreReadsLegacyJSONRecords is the upgrade path for stores
// written before segments: an old <hash>.json or <hash>.bin record is
// a miss, a fresh Put writes a frame that then hits, and a size bound
// counts the leftover files and evicts them first, so an old store
// cannot grow past its bound.
func TestStoreReadsLegacyJSONRecords(t *testing.T) {
	dir := t.TempDir()
	key := testSpec().Key()
	var legacy []string
	var legacyBytes int64
	for i, ext := range []string{"json", "bin"} {
		path, data := writeLegacyRecord(t, dir, key, testResult(), ext)
		old := time.Date(2000, 1, 1+i, 0, 0, 0, 0, time.UTC)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, path)
		legacyBytes += int64(len(data))
	}
	st := openStore(t, dir)

	if st.Get(key) != nil {
		t.Fatal("legacy record was served instead of treated as a miss")
	}
	want := testResult()
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(key); got == nil || got.Cycles != want.Cycles || got.RetiredUops != want.RetiredUops {
		t.Fatalf("Put after a legacy miss did not hit: got %+v want %+v", got, want)
	}

	_, _, segBytes := frameOf(t, st, key)
	total := segBytes + legacyBytes
	if err := st.SetMaxBytes(total); err != nil {
		t.Fatal(err)
	}
	if st.Bytes() != total {
		t.Fatalf("GC scan tracks %d bytes, want %d (the segment plus the leftover .json and .bin)", st.Bytes(), total)
	}
	if err := st.SetMaxBytes(segBytes); err != nil {
		t.Fatal(err)
	}
	for _, path := range legacy {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("leftover %s survived a bound that only fits the segment: %v", filepath.Base(path), err)
		}
	}
	if st.Evictions() != 2 || st.Bytes() != segBytes {
		t.Errorf("after eviction: %d evictions, %d bytes — want 2 and %d", st.Evictions(), st.Bytes(), segBytes)
	}
	if files, onDisk := schemaFiles(t, dir); len(files) != 1 || onDisk != segBytes {
		t.Errorf("on disk after eviction: %v (%d bytes), want one %d-byte segment", files, onDisk, segBytes)
	}
	if st.Get(key) == nil {
		t.Error("evicting the leftover files took the record with them")
	}
}

// TestStoreLegacyJSONCorruption: a corrupt legacy JSON record is a
// miss, never an error, and does not shadow the record a later Put
// writes.
func TestStoreLegacyJSONCorruption(t *testing.T) {
	dir := t.TempDir()
	key := testSpec().Key()
	path, orig := writeLegacyRecord(t, dir, key, testResult(), "json")
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
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Get(key) != nil {
			t.Errorf("%s legacy record was served instead of treated as a miss", c.name)
		}
		st.Close()
	}
	st := openStore(t, dir)
	want := testResult()
	if err := st.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got := openStore(t, dir).Get(key); got == nil || got.Cycles != want.Cycles {
		t.Fatalf("corrupt legacy record shadowed the segment record: got %+v want %+v", got, want)
	}
}

// TestLabRecoversFromCorruptStore: a corrupt on-disk record must be
// treated as a miss and re-simulated — never an error, never a crash —
// and the re-simulated record must shadow the bad one for every later
// store over the directory.
func TestLabRecoversFromCorruptStore(t *testing.T) {
	dir := t.TempDir()
	s := testSpec()
	s.Scale = 0.02
	key := s.Key()
	// A frame with a valid CRC around a record whose result frame is
	// garbage: indexed at open, rejected by Get.
	bad := append(appendBinRecord(nil, key, testResult()), "{corrupt"...)
	path := writeSegment(t, dir, sealFrame(bad))
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	l := New()
	l.Store = openStore(t, dir)
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
	// The repair shadows the bad record: a brand-new lab over a
	// reopened store gets a disk hit.
	l2 := New()
	l2.Store = openStore(t, dir)
	if _, err := l2.Result(s); err != nil {
		t.Fatal(err)
	}
	if c := l2.Counters(); c.DiskHits != 1 || c.Fresh != 0 {
		t.Errorf("after recovery, counters = %+v, want a pure disk hit", c)
	}
}

func TestStorePutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	key := testSpec().Key()
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	// One segment, holding exactly the one frame: no temp droppings.
	_, _, size := frameOf(t, st, key)
	files, total := schemaFiles(t, dir)
	if len(files) != 1 || total != size || !strings.HasPrefix(filepath.Base(files[0]), segmentPrefix) {
		t.Errorf("after one Put the store holds %v (%d bytes), want one %d-byte segment", files, total, size)
	}
}

func TestStoreSchemaIsolation(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
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
	st := openStore(t, t.TempDir())
	key := testSpec().Key()
	frame := func() []byte {
		t.Helper()
		path, off, size := frameOf(t, st, key)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data[off : off+size]
	}

	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	first := frame()

	// A warm re-run of the same simulation: identical result.
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	second := frame()
	if !bytes.Equal(first, second) {
		t.Errorf("re-stored record differs:\n--- first ---\n%x\n--- second ---\n%x",
			first, second)
	}
}

// TestStorePutDurableAgainstTruncation is the fsync regression test:
// Put syncs each frame before it returns, so a crash can tear only a
// frame whose Put had not returned. The on-disk contract that makes
// even that safe is exercised end to end: every prefix of a segment's
// last frame reads as a miss (a torn tail, where the scan stops), and
// the lab silently re-simulates and repairs it.
func TestStorePutDurableAgainstTruncation(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := testSpec()
	s.Scale = 0.02
	key := s.Key()
	if err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	path, off, size := frameOf(t, st, key)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, n := range []int64{0, 1, size / 3, size - 1} {
		if err := os.WriteFile(path, orig[:off+n], 0o666); err != nil {
			t.Fatal(err)
		}
		if openStore(t, dir).Get(key) != nil {
			t.Fatalf("frame truncated to %d bytes was served instead of treated as a miss", n)
		}
	}
	// And the lab repairs it.
	l := New()
	l.Store = openStore(t, dir)
	if _, err := l.Result(s); err != nil {
		t.Fatalf("lab did not recover from a truncated record: %v", err)
	}
	if c := l.Counters(); c.Fresh != 1 {
		t.Errorf("counters = %+v, want one fresh repair run", c)
	}
	if openStore(t, dir).Get(key) == nil {
		t.Error("the repair is not on disk")
	}
}

// TestStoreCrashAnywhere generalizes TestStorePutDurableAgainstTruncation
// to every way a crash or a bad sector can leave a two-record segment:
// cut at every offset, and each byte of each frame flipped. After each
// reopen nothing panics, the intact record hits and the damaged one
// misses, and a lab over the reopened store re-simulates exactly the
// keys that miss, into a new segment that a third open reads.
//
// A flipped payload or CRC byte costs its own record only. A flipped
// length prefix is a framing error: the damaged record misses, and
// whether the records after it survive depends on where the bad length
// leads (past the end of the file it is a torn tail), so there the
// test asserts nothing about them beyond the re-simulation contract.
func TestStoreCrashAnywhere(t *testing.T) {
	specs := []Spec{{Bench: "synthetic-0", Scale: 1}, {Bench: "synthetic-1", Scale: 1}}
	var mu sync.Mutex
	var called []string
	backend := func(_ context.Context, s Spec) (*cpu.Result, error) {
		mu.Lock()
		called = append(called, s.Bench)
		mu.Unlock()
		var i int
		fmt.Sscanf(s.Bench, "synthetic-%d", &i)
		return gcResult(i), nil
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	for i, s := range specs {
		if err := st.Put(s.Key(), gcResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	path, _, n0 := frameOf(t, st, specs[0].Key())
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	const hit, miss, either = 1, 2, 3
	check := func(what string, data []byte, want [2]int) {
		writeSegment(t, dir, data)
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var missing []string
		for i, s := range specs {
			got := hit
			if st.Get(s.Key()) == nil {
				got = miss
				missing = append(missing, s.Bench)
			}
			if got&want[i] == 0 {
				t.Fatalf("%s: record %d hit=%v, want hit=%v", what, i, got == hit, want[i] == hit)
			}
		}
		called = nil
		l := New()
		l.Store = st
		l.Backend = backend
		l.Warm(specs)
		st.Close()
		sort.Strings(called)
		if c := l.Counters(); c.Errors != 0 || fmt.Sprint(called) != fmt.Sprint(missing) {
			t.Fatalf("%s: lab re-simulated %v (counters %+v), want exactly %v", what, called, c, missing)
		}
		if segs, _ := filepath.Glob(filepath.Join(dir, schemaDirName(), segmentPrefix+"*")); len(missing) > 0 && len(segs) != 2 {
			t.Fatalf("%s: the re-simulations left %d segments, want the damaged one and a new one", what, len(segs))
		}
		third, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer third.Close()
		for i, s := range specs {
			if third.Get(s.Key()) == nil {
				t.Fatalf("%s: record %d missing after the repair", what, i)
			}
		}
	}

	for cut := int64(0); cut <= int64(len(orig)); cut++ {
		want := [2]int{miss, miss}
		if cut >= n0 {
			want[0] = hit
		}
		if cut == int64(len(orig)) {
			want[1] = hit
		}
		check(fmt.Sprintf("cut at %d", cut), orig[:cut], want)
	}
	frames := [2][2]int64{{0, n0}, {n0, int64(len(orig))}}
	for f, fr := range frames {
		for pos := fr[0]; pos < fr[1]; pos++ {
			data := append([]byte{}, orig...)
			data[pos] ^= 0xff
			want := [2]int{hit, hit}
			want[f] = miss
			if pos < fr[0]+4 && f == 0 {
				want[1] = either
			}
			check(fmt.Sprintf("frame %d byte %d flipped", f, pos-fr[0]), data, want)
		}
	}
}

// TestStoreFaultPutAbortsCleanly: an injected write failure aborts the
// Put before anything touches the filesystem — no segment, no partial
// record.
func TestStoreFaultPutAbortsCleanly(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	st.FaultPut = func(key string) error { return os.ErrPermission }
	key := testSpec().Key()
	if err := st.Put(key, testResult()); err == nil {
		t.Fatal("faulted Put reported success")
	}
	if st.Get(key) != nil {
		t.Error("faulted Put left a readable record")
	}
	if files, _ := schemaFiles(t, dir); len(files) != 0 {
		t.Errorf("faulted Put left files behind: %v", files)
	}
}

// TestStoreDiscardedFrameStaysUnread: the frame of a Put whose fsync
// failed gets an inverted CRC, so no reopen serves it, the frames around
// it still read, and the store appends no more to its segment.
func TestStoreDiscardedFrameStaysUnread(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	for i := 0; i < 3; i++ {
		if err := st.Put(gcKey(i), gcResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	path, off, size := frameOf(t, st, gcKey(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	seg := st.active
	st.discardLocked(seg, off, data[off:off+size])
	st.mu.Unlock()
	if err := st.Put(gcKey(3), gcResult(3)); err != nil {
		t.Fatal(err)
	}
	if next, _, _ := frameOf(t, st, gcKey(3)); next == path {
		t.Error("the store appended to a segment after a failed fsync")
	}
	reopened := openStore(t, dir)
	for i := 0; i < 4; i++ {
		if got := reopened.Get(gcKey(i)) != nil; got != (i != 1) {
			t.Errorf("record %d: served=%v after its neighbour's frame was discarded", i, got)
		}
	}
}

// TestStoreVisibility: a store sees what was on disk when it opened
// plus its own puts. Two stores writing one directory at once, each
// from two goroutines that read back what they write, each append to
// their own segment, and a store opened after both have written sees
// everything.
func TestStoreVisibility(t *testing.T) {
	dir := t.TempDir()
	a, b := openStore(t, dir), openStore(t, dir)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		st := []*Store{a, b}[w%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < 40; i += 4 {
				if err := st.Put(gcKey(i), gcResult(i)); err != nil {
					t.Error(err)
				}
				if r := st.Get(gcKey(i)); r == nil || r.Cycles != uint64(i)+1 {
					t.Errorf("record %d read back as %+v", i, r)
				}
			}
		}()
	}
	wg.Wait()
	if a.Get(gcKey(0)) == nil || a.Get(gcKey(1)) != nil {
		t.Error("a store sees another live store's later puts, or misses its own")
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, schemaDirName(), segmentPrefix+"*")); len(segs) != 2 {
		t.Errorf("two writers left %d segments, want 2", len(segs))
	}
	c := openStore(t, dir)
	for i := 0; i < 40; i++ {
		if r := c.Get(gcKey(i)); r == nil || r.Cycles != uint64(i)+1 {
			t.Fatalf("record %d not served after both writers finished: %+v", i, r)
		}
	}
}

// TestStoreCloseReleasesFDs opens, writes and closes 200 stores over
// one directory in one process: the process's open files must not
// grow, though each store reads every segment the ones before it left.
func TestStoreCloseReleasesFDs(t *testing.T) {
	count := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	before := count()
	for i := 0; i < 200; i++ {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(gcKey(i), gcResult(i)); err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.Get(gcKey(i-1)) == nil {
			t.Fatalf("store %d does not see the record store %d wrote", i, i-1)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Get(gcKey(i)) != nil || st.Put(gcKey(i), gcResult(i)) == nil {
			t.Fatal("a closed store still serves or takes records")
		}
	}
	if after := count(); after > before {
		t.Errorf("open files grew from %d to %d over 200 stores", before, after)
	}
}
