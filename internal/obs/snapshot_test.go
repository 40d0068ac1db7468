package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureSnapshot returns a fully populated snapshot whose buckets sum
// exactly to its cycle count — the same shape wishsim -stats-out
// emits.
func fixtureSnapshot() *Snapshot {
	s := &Snapshot{
		Schema:         SnapshotSchema,
		Bench:          "gzip",
		Input:          "input-A",
		Variant:        "wish-jump/join/loop",
		Machine:        "base-512-d30",
		Cycles:         1000,
		RetiredUops:    2400,
		ProgUops:       2300,
		FetchedUops:    2900,
		Squashed:       500,
		CondBranches:   400,
		MispredCondBr:  30,
		Flushes:        25,
		BTBMissBubbles: 12,
		UPC:            2.4,
		MispredPer1K:   12.5,
	}
	cycles := [NumBuckets]uint64{520, 60, 200, 90, 50, 30, 35, 15}
	for _, b := range Buckets() {
		s.Stalls = append(s.Stalls, BucketStat{
			Name:   b.String(),
			Cycles: cycles[b],
			Share:  float64(cycles[b]) / 1000,
		})
	}
	s.Branches = []BranchStat{
		{PC: 17, Retired: 120, Mispredicts: 20, Flushes: 18, FlushCycles: 150, ConfHigh: 80, ConfLow: 40},
		{PC: 5, Retired: 200, Mispredicts: 8, Flushes: 7, FlushCycles: 50},
	}
	s.Wish = []WishStat{
		{Type: "jump", HighCorrect: 60, HighMispred: 4, LowCorrect: 10, LowMispred: 6},
		{Type: "loop", HighCorrect: 30, HighMispred: 2, LowCorrect: 5, LowMispred: 3,
			LowEarly: 1, LowLate: 1, LowNoExit: 1},
	}
	s.Caches = []CacheStat{
		{Level: "L1I", Accesses: 3000, Misses: 12},
		{Level: "L1D", Accesses: 900, Misses: 45},
		{Level: "L2", Accesses: 57, Misses: 20},
		{Level: "mem", Accesses: 20, Misses: 20},
	}
	return s
}

// TestSnapshotGolden pins the exact bytes of the JSON export: key
// order, indentation, and schema version. A diff here means the
// snapshot schema changed — bump SnapshotSchema and regenerate with
// go test ./internal/obs -run TestSnapshotGolden -update.
func TestSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureSnapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot JSON drifted from golden (key order or schema changed; "+
			"if intended, bump SnapshotSchema and rerun with -update)\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureSnapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := s.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Error("snapshot did not survive a decode/encode round trip byte-identically")
	}
}

// TestSnapshotValidateRejectsCorrupt mirrors the lab store's
// corruption table: every foreign or semantically damaged snapshot
// decodes as JSON but must fail Validate, never be silently consumed.
func TestSnapshotValidateRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureSnapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.String()

	corruptions := []struct {
		name string
		mut  func(s string) string
	}{
		{"wrong schema", func(s string) string {
			return strings.Replace(s, `"schema": 1`, `"schema": 99`, 1)
		}},
		{"missing bench", func(s string) string {
			return strings.Replace(s, `"bench": "gzip"`, `"bench": ""`, 1)
		}},
		{"missing cycles", func(s string) string {
			return strings.Replace(s, `"cycles": 1000`, `"cycles": 0`, 1)
		}},
		{"buckets do not sum", func(s string) string {
			return strings.Replace(s, `"cycles": 520`, `"cycles": 519`, 1)
		}},
		{"bucket renamed", func(s string) string {
			return strings.Replace(s, `"name": "useful-retire"`, `"name": "useful"`, 1)
		}},
		{"bucket missing", func(s string) string {
			return strings.Replace(s,
				",\n    {\n      \"name\": \"structural\",\n      \"cycles\": 15,\n      \"share\": 0.015\n    }", "", 1)
		}},
		{"branch flush cycles exceed bucket", func(s string) string {
			return strings.Replace(s, `"flush_cycles": 150`, `"flush_cycles": 9999`, 1)
		}},
	}
	for _, c := range corruptions {
		mutated := c.mut(orig)
		if mutated == orig {
			t.Fatalf("%s: mutation did not change the document", c.name)
		}
		var s Snapshot
		if err := json.Unmarshal([]byte(mutated), &s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%s snapshot was accepted instead of rejected", c.name)
		}
	}
	// And the undamaged document still validates.
	var s Snapshot
	if err := json.Unmarshal([]byte(orig), &s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

func TestWriteJSONRefusesInvariantViolation(t *testing.T) {
	s := fixtureSnapshot()
	s.Stalls[0].Cycles++ // break the partition
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err == nil {
		t.Error("WriteJSON exported a snapshot violating the accounting identity")
	}
	if buf.Len() != 0 {
		t.Error("invalid snapshot still produced output")
	}
}
