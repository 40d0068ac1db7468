package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wishbranch/internal/cache"
	"wishbranch/internal/cpu"
	"wishbranch/internal/obs"
)

// testResult builds a deterministic, distinctive result for index i,
// including a variable-length Branches slice so result frames have
// different sizes (frame boundaries land at irregular offsets).
func testResult(i int) *cpu.Result {
	rng := rand.New(rand.NewSource(int64(i) + 1))
	r := &cpu.Result{
		Cycles:        rng.Uint64(),
		RetiredUops:   rng.Uint64(),
		ProgUops:      rng.Uint64(),
		FetchedUops:   rng.Uint64(),
		CondBranches:  rng.Uint64(),
		MispredCondBr: rng.Uint64(),
		Flushes:       rng.Uint64(),
		L1D:           cache.Stats{Accesses: rng.Uint64(), Misses: rng.Uint64()},
		Halted:        true,
	}
	for j := range r.Acct.Buckets {
		r.Acct.Buckets[j] = rng.Uint64()
	}
	for j := 0; j <= i%3; j++ {
		r.Branches = append(r.Branches, obs.BranchStat{
			PC: rng.Intn(1 << 16), Retired: rng.Uint64(), FlushCycles: rng.Uint64(),
		})
	}
	return r
}

func resultBytes(r *cpu.Result) []byte { return cpu.AppendResult(nil, r) }

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("v3|bench=synthetic-%d|machine=test", i)
	}
	return keys
}

// writeFullJournal writes a complete campaign journal (spec set + one
// result per key) and returns its bytes.
func writeFullJournal(t testing.TB, path string, keys []string) []byte {
	t.Helper()
	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 0 || rep.Specs != nil {
		t.Fatalf("fresh journal replayed %d frames, specs %v", rep.Frames, rep.Specs)
	}
	if err := j.AppendSpecSet(keys); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := j.Append(k, testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// frameBoundaries parses a clean journal and returns every frame
// boundary offset, starting with the header end and ending with
// len(data).
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	if len(data) < headerSize {
		t.Fatalf("journal shorter than header: %d bytes", len(data))
	}
	bounds := []int{headerSize}
	off := headerSize
	for off < len(data) {
		if off+4 > len(data) {
			t.Fatalf("torn length prefix at %d", off)
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4 + plen + 4
		if off > len(data) {
			t.Fatalf("frame at %d overruns file", bounds[len(bounds)-1])
		}
		bounds = append(bounds, off)
	}
	return bounds
}

func TestJournalRoundTrip(t *testing.T) {
	keys := testKeys(5)
	path := filepath.Join(t.TempDir(), "j.wbj")
	writeFullJournal(t, path, keys)

	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rep.TruncatedBytes != 0 {
		t.Errorf("clean file truncated %d bytes", rep.TruncatedBytes)
	}
	if len(rep.Specs) != len(keys) {
		t.Fatalf("replayed %d specs, want %d", len(rep.Specs), len(keys))
	}
	for i, k := range keys {
		if rep.Specs[i] != k {
			t.Errorf("spec %d: got %q, want %q", i, rep.Specs[i], k)
		}
		got := rep.Results[k]
		if got == nil {
			t.Fatalf("key %q missing from replay", k)
		}
		if !bytes.Equal(resultBytes(got), resultBytes(testResult(i))) {
			t.Errorf("key %q: replayed result differs from original", k)
		}
	}
	if rep.Frames != len(keys) {
		t.Errorf("Frames = %d, want %d", rep.Frames, len(keys))
	}
	if frames, resumed := j.Stats(); frames != uint64(len(keys)) || resumed != uint64(len(keys)) {
		t.Errorf("Stats = (%d, %d), want (%d, %d)", frames, resumed, len(keys), len(keys))
	}
	if missing := rep.Missing(keys); len(missing) != 0 {
		t.Errorf("Missing = %v on a complete journal", missing)
	}
	// Replayed keys count as journaled: re-appending them writes nothing.
	for i, k := range keys {
		if err := j.Append(k, testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if frames, _ := j.Stats(); frames != uint64(len(keys)) {
		t.Errorf("re-appending replayed keys grew the journal to %d frames, want %d", frames, len(keys))
	}
}

// TestKillAtEveryFrameBoundary is the crash-safety property test: a
// campaign killed at any frame boundary resumes with exactly the
// already-journaled prefix replayed, and finishing the campaign
// reproduces the uninterrupted journal byte for byte.
func TestKillAtEveryFrameBoundary(t *testing.T) {
	keys := testKeys(6)
	dir := t.TempDir()
	full := writeFullJournal(t, filepath.Join(dir, "full.wbj"), keys)
	bounds := frameBoundaries(t, full)
	if len(bounds) != len(keys)+2 { // header, spec-set, one per result
		t.Fatalf("expected %d boundaries, got %d", len(keys)+2, len(bounds))
	}

	for bi, cut := range bounds {
		path := filepath.Join(dir, fmt.Sprintf("kill-%d.wbj", bi))
		if err := os.WriteFile(path, full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(path)
		if err != nil {
			t.Fatalf("boundary %d: %v", bi, err)
		}
		if rep.TruncatedBytes != 0 {
			t.Errorf("boundary %d: truncated %d bytes of a clean prefix", bi, rep.TruncatedBytes)
		}
		// Boundary 0 = header only, boundary 1 = spec set written,
		// boundary 2+i = i+1 results journaled.
		wantResults := bi - 2 + 1
		if wantResults < 0 {
			wantResults = 0
		}
		if rep.Frames != wantResults {
			t.Errorf("boundary %d: replayed %d results, want %d", bi, rep.Frames, wantResults)
		}
		if bi >= 1 && len(rep.Specs) != len(keys) {
			t.Errorf("boundary %d: spec set lost", bi)
		}
		if got := len(rep.Missing(keys)); got != len(keys)-wantResults {
			t.Errorf("boundary %d: %d missing, want %d", bi, got, len(keys)-wantResults)
		}
		// Resume: rewrite the spec set if it was lost, then blindly
		// append every key in campaign order — dedup skips the replayed
		// prefix, so only the missing suffix is written.
		if rep.Specs == nil {
			if err := j.AppendSpecSet(keys); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range keys {
			if err := j.Append(k, testResult(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		resumed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, full) {
			t.Errorf("boundary %d: resumed journal differs from uninterrupted journal (%d vs %d bytes)",
				bi, len(resumed), len(full))
		}
	}
}

// TestTornTailEveryByteOffset truncates the journal at every byte
// offset inside the final frame and asserts Open recovers the longest
// valid prefix: everything before the final frame replays, the torn
// tail is cut back to the last boundary, and appending still works.
func TestTornTailEveryByteOffset(t *testing.T) {
	keys := testKeys(4)
	dir := t.TempDir()
	full := writeFullJournal(t, filepath.Join(dir, "full.wbj"), keys)
	bounds := frameBoundaries(t, full)
	lastBoundary := bounds[len(bounds)-2]

	for cut := lastBoundary + 1; cut < len(full); cut++ {
		path := filepath.Join(dir, "torn.wbj")
		if err := os.WriteFile(path, full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rep.Frames != len(keys)-1 {
			t.Fatalf("cut %d: replayed %d results, want %d", cut, rep.Frames, len(keys)-1)
		}
		if want := int64(cut - lastBoundary); rep.TruncatedBytes != want {
			t.Errorf("cut %d: TruncatedBytes = %d, want %d", cut, rep.TruncatedBytes, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(lastBoundary) {
			t.Errorf("cut %d: file is %d bytes after recovery, want %d", cut, fi.Size(), lastBoundary)
		}
		if missing := rep.Missing(keys); len(missing) != 1 || missing[0] != keys[len(keys)-1] {
			t.Fatalf("cut %d: Missing = %v, want the final key", cut, missing)
		}
		// Re-append the lost result: the file must now equal the
		// uninterrupted journal byte for byte.
		if err := j.Append(keys[len(keys)-1], testResult(len(keys)-1)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		healed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(healed, full) {
			t.Errorf("cut %d: healed journal differs from uninterrupted journal", cut)
		}
	}
}

// TestCorruptFrameStopsReplay flips one byte inside a middle frame: the
// CRC catches it, replay stops at the longest valid prefix before the
// corruption, and the corrupt tail is truncated away.
func TestCorruptFrameStopsReplay(t *testing.T) {
	keys := testKeys(5)
	dir := t.TempDir()
	full := writeFullJournal(t, filepath.Join(dir, "full.wbj"), keys)
	bounds := frameBoundaries(t, full)

	// Corrupt the middle of result frame 2 (boundary index 3 → 4).
	frameStart, frameEnd := bounds[3], bounds[4]
	corrupt := append([]byte(nil), full...)
	corrupt[(frameStart+frameEnd)/2] ^= 0xFF
	path := filepath.Join(dir, "corrupt.wbj")
	if err := os.WriteFile(path, corrupt, 0o666); err != nil {
		t.Fatal(err)
	}

	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rep.Frames != 2 {
		t.Errorf("replayed %d results past a corrupt frame, want 2", rep.Frames)
	}
	if want := int64(len(full) - frameStart); rep.TruncatedBytes != want {
		t.Errorf("TruncatedBytes = %d, want %d", rep.TruncatedBytes, want)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(frameStart) {
		t.Errorf("file is %d bytes after recovery, want %d", fi.Size(), frameStart)
	}
	if missing := rep.Missing(keys); len(missing) != 3 {
		t.Errorf("Missing = %v, want the 3 keys at and after the corruption", missing)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"notajournal.wbj": []byte("this is clearly not a journal"),
		"badversion.wbj":  {'W', 'B', 'J', '1', 99, 0, 0, 0},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o666); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path); err == nil {
			t.Errorf("%s: Open accepted a foreign file", name)
		}
		// The foreign file must be untouched — clobbering it would
		// destroy someone else's data.
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, content) {
			t.Errorf("%s: Open modified a file it refused", name)
		}
	}
}

func TestOpenResetsTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wbj")
	if err := os.WriteFile(path, []byte("WBJ"), 0o666); err != nil {
		t.Fatal(err)
	}
	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TruncatedBytes != 3 {
		t.Errorf("TruncatedBytes = %d, want 3", rep.TruncatedBytes)
	}
	if err := j.Append("k", testResult(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, rep, err = Open(path); err != nil || rep.Frames != 1 {
		t.Fatalf("reopen after header reset: frames=%d err=%v", rep.Frames, err)
	}
}

func TestAppendDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dedup.wbj")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append("same-key", testResult(0)); err != nil {
			t.Fatal(err)
		}
	}
	if frames, _ := j.Stats(); frames != 1 {
		t.Errorf("3 appends of one key produced %d frames, want 1", frames)
	}
	size1, _ := os.Stat(path)
	if err := j.Append("same-key", testResult(0)); err != nil {
		t.Fatal(err)
	}
	size2, _ := os.Stat(path)
	if size1.Size() != size2.Size() {
		t.Error("duplicate append grew the file")
	}
	j.Close()
}

func TestCampaignPath(t *testing.T) {
	dir := "/tmp/j"
	a := CampaignPath(dir, []string{"k1", "k2"})
	if b := CampaignPath(dir, []string{"k1", "k2"}); b != a {
		t.Errorf("same keys, different paths: %s vs %s", a, b)
	}
	if b := CampaignPath(dir, []string{"k2", "k1"}); b == a {
		t.Error("key order should change the campaign path")
	}
	if b := CampaignPath(dir, []string{"k1"}); b == a {
		t.Error("different key sets should get different paths")
	}
	// Length-prefixed hashing: {"ab","c"} and {"a","bc"} must differ.
	if CampaignPath(dir, []string{"ab", "c"}) == CampaignPath(dir, []string{"a", "bc"}) {
		t.Error("key-list hash is not length-delimited")
	}
	if filepath.Dir(a) != dir {
		t.Errorf("path %s not under %s", a, dir)
	}
}

// specSetPoison is a header plus one CRC-valid spec-set frame whose
// count (0xFFFFFFF0) no 5-byte payload can hold. Sizing the key slice
// from that count asks the runtime for ~64 GB, a fatal error no
// recover can catch.
func specSetPoison() []byte {
	payload := binary.LittleEndian.AppendUint32([]byte{frameSpecSet}, 0xFFFFFFF0)
	data := binary.LittleEndian.AppendUint32([]byte(magic), FormatVersion)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
	data = append(data, payload...)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
}

func TestOpenSpecSetCountBeyondPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.wbj")
	if err := os.WriteFile(path, specSetPoison(), 0o666); err != nil {
		t.Fatal(err)
	}
	j, rep, err := Open(path)
	if err != nil {
		return
	}
	defer j.Close()
	if rep.Specs != nil || rep.Frames != 0 {
		t.Errorf("poison replayed specs %v and %d frames", rep.Specs, rep.Frames)
	}
}

// FuzzJournalOpen feeds arbitrary files to Open, which reads whatever a
// -journal path holds. Open either refuses the file or recovers its
// longest valid prefix; opening the recovered file again replays the
// same frames and truncates nothing.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	full := writeFullJournal(f, filepath.Join(dir, "seed.wbj"), testKeys(2))
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(specSetPoison())
	f.Add(specSetPoison()[:headerSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wbj")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(path)
		if err != nil {
			return
		}
		j.Close()
		j, again, err := Open(path)
		if err != nil {
			t.Fatalf("reopening a recovered journal: %v", err)
		}
		j.Close()
		if again.Frames != rep.Frames || len(again.Specs) != len(rep.Specs) || again.TruncatedBytes != 0 {
			t.Fatalf("reopen replayed %d frames, %d specs, truncated %d; first open replayed %d frames, %d specs",
				again.Frames, len(again.Specs), again.TruncatedBytes, rep.Frames, len(rep.Specs))
		}
	})
}
