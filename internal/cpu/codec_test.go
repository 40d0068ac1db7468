package cpu

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wishbranch/internal/cache"
	"wishbranch/internal/obs"
)

var updateCodecGolden = flag.Bool("update-codec-golden", false, "rewrite the result codec golden file")

// fixtureResult returns a fully-populated Result with distinctive
// values in every field, so the golden file and the round-trip tests
// notice a dropped, reordered, or transposed field.
func fixtureResult() *Result {
	r := &Result{
		Cycles:         0x0102030405060708,
		RetiredUops:    2,
		ProgUops:       3,
		FetchedUops:    4,
		Squashed:       5,
		CondBranches:   6,
		MispredCondBr:  7,
		Flushes:        8,
		BTBMissBubbles: 9,
		WishJump:       WishClass{10, 11, 12, 13, 14, 15, 16},
		WishJoin:       WishClass{17, 18, 19, 20, 21, 22, 23},
		WishLoop:       WishClass{24, 25, 26, 27, 28, 29, 30},
		L1I:            cache.Stats{Accesses: 31, Misses: 32},
		L1D:            cache.Stats{Accesses: 33, Misses: 34},
		L2:             cache.Stats{Accesses: 35, Misses: 36},
		Mem:            cache.Stats{Accesses: 37, Misses: 38},
		Halted:         true,
	}
	for i := range r.Acct.Buckets {
		r.Acct.Buckets[i] = uint64(100 + i)
	}
	r.Branches = []obs.BranchStat{
		{PC: 39, Retired: 40, Mispredicts: 41, Flushes: 42, FlushCycles: 43, ConfHigh: 44, ConfLow: 45},
		{PC: 46, Retired: 47, Mispredicts: 48, Flushes: 49, FlushCycles: 50, ConfHigh: 51, ConfLow: 52},
	}
	return r
}

func randResult(rng *rand.Rand) *Result {
	r := &Result{}
	r.Cycles = rng.Uint64()
	r.RetiredUops = rng.Uint64()
	r.ProgUops = rng.Uint64()
	r.FetchedUops = rng.Uint64()
	r.Squashed = rng.Uint64()
	r.CondBranches = rng.Uint64()
	r.MispredCondBr = rng.Uint64()
	r.Flushes = rng.Uint64()
	r.BTBMissBubbles = rng.Uint64()
	for _, w := range []*WishClass{&r.WishJump, &r.WishJoin, &r.WishLoop} {
		*w = WishClass{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(),
			rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
	for _, c := range []*cache.Stats{&r.L1I, &r.L1D, &r.L2, &r.Mem} {
		c.Accesses, c.Misses = rng.Uint64(), rng.Uint64()
	}
	for i := range r.Acct.Buckets {
		r.Acct.Buckets[i] = rng.Uint64()
	}
	r.Halted = rng.Intn(2) == 1
	for i, n := 0, rng.Intn(5); i < n; i++ {
		r.Branches = append(r.Branches, obs.BranchStat{
			PC: rng.Intn(1 << 20), Retired: rng.Uint64(), Mispredicts: rng.Uint64(),
			Flushes: rng.Uint64(), FlushCycles: rng.Uint64(),
			ConfHigh: rng.Uint64(), ConfLow: rng.Uint64(),
		})
	}
	return r
}

// TestResultCodecGolden pins the exact byte layout of codec version 1.
// A diff here means the wire/store format changed — bump
// ResultCodecVersion and regenerate with -update-codec-golden.
func TestResultCodecGolden(t *testing.T) {
	enc := AppendResult(nil, fixtureResult())
	got := hex.Dump(enc)
	golden := filepath.Join("testdata", "result_codec_v1.golden")
	if *updateCodecGolden {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-codec-golden)", err)
	}
	if got != string(want) {
		t.Errorf("binary layout drifted from golden (if intended, bump ResultCodecVersion "+
			"and rerun with -update-codec-golden)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestResultCodecJSONDifferential is the same identity the harness
// cache oracle and FuzzResultCodec check: for any Result, binary
// encode→decode must reproduce the exact JSON serialization.
func TestResultCodecJSONDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []*Result{{}, fixtureResult()}
	for i := 0; i < 50; i++ {
		cases = append(cases, randResult(rng))
	}
	for i, r := range cases {
		enc := AppendResult(nil, r)
		if len(enc) != EncodedResultSize(r) {
			t.Fatalf("case %d: encoded %d bytes, EncodedResultSize says %d", i, len(enc), EncodedResultSize(r))
		}
		var dec Result
		n, err := DecodeResult(enc, &dec)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("case %d: decode consumed %d of %d bytes", i, n, len(enc))
		}
		want, _ := json.Marshal(r)
		got, _ := json.Marshal(&dec)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: binary round trip diverges from JSON:\nwant %s\ngot  %s", i, want, got)
		}
	}
}

// TestResultCodecFramesCompose checks frames are self-delimiting:
// concatenated frames decode one at a time with correct consumed
// counts, the property the store record and stream formats rely on.
func TestResultCodecFramesCompose(t *testing.T) {
	a, b := fixtureResult(), &Result{Cycles: 77, Halted: true}
	buf := AppendResult(AppendResult(nil, a), b)
	var dec Result
	n1, err := DecodeResult(buf, &dec)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Cycles != a.Cycles {
		t.Fatalf("first frame decoded wrong result: cycles %d", dec.Cycles)
	}
	n2, err := DecodeResult(buf[n1:], &dec)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Cycles != 77 || len(dec.Branches) != 0 {
		t.Fatalf("second frame decoded wrong result: %+v", dec)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("frames consumed %d+%d of %d bytes", n1, n2, len(buf))
	}
}

// TestResultCodecCorruption mirrors the store's JSON corruption table:
// every malformed frame must fail cleanly with an ErrResultCodec error
// (the store then treats it as a miss), never panic, never
// half-succeed.
func TestResultCodecCorruption(t *testing.T) {
	valid := AppendResult(nil, fixtureResult())
	mut := func(off int, b byte) []byte {
		c := bytes.Clone(valid)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:7]},
		{"header only", valid[:8]},
		{"truncated payload", valid[:len(valid)-1]},
		{"truncated mid fixed section", valid[:40]},
		{"bad magic 0", mut(0, 'X')},
		{"bad magic 1", mut(1, 'X')},
		{"future version", mut(2, ResultCodecVersion+1)},
		{"nonzero reserved", mut(3, 0xff)},
		{"payload length too small", func() []byte {
			c := bytes.Clone(valid)
			c[4], c[5], c[6], c[7] = 1, 0, 0, 0
			return c
		}()},
		{"payload length not a whole branch", func() []byte {
			c := bytes.Clone(valid)
			c[4]++
			return c
		}()},
		{"payload length beyond buffer", func() []byte {
			c := bytes.Clone(valid)
			c[6] = 0xff
			return c
		}()},
		{"bad halted byte", mut(8+resultCodecFixedWords*8, 2)},
		{"branch count disagrees with length", mut(8+resultCodecFixedWords*8+1, 99)},
		{"garbage", []byte("not a result frame at all, definitely")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r Result
			n, err := DecodeResult(tc.data, &r)
			if err == nil {
				t.Fatalf("decode accepted corrupt input (consumed %d)", n)
			}
			if !errors.Is(err, ErrResultCodec) {
				t.Fatalf("error %v does not wrap ErrResultCodec", err)
			}
		})
	}
}

// TestResultCodecZeroAlloc pins the steady-state allocation count of
// both directions at zero: encode into a reused buffer, decode into a
// reused Result (branch capacity warmed by the first decode).
func TestResultCodecZeroAlloc(t *testing.T) {
	r := fixtureResult()
	buf := make([]byte, 0, EncodedResultSize(r))
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendResult(buf[:0], r)
	}); n != 0 {
		t.Errorf("AppendResult allocates %v objects per run in steady state, want 0", n)
	}
	var dec Result
	if _, err := DecodeResult(buf, &dec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResult(buf, &dec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeResult allocates %v objects per run in steady state, want 0", n)
	}
}

// TestResultCodecCoversEveryField pins Result's (recursive) field
// list. If this fails, a field was added, removed, renamed, or
// re-typed without updating the binary codec: extend
// AppendResult/DecodeResult, bump ResultCodecVersion, regenerate the
// golden, and update this pin.
func TestResultCodecCoversEveryField(t *testing.T) {
	want := []string{
		"Cycles uint64",
		"RetiredUops uint64",
		"ProgUops uint64",
		"FetchedUops uint64",
		"Squashed uint64",
		"CondBranches uint64",
		"MispredCondBr uint64",
		"Flushes uint64",
		"BTBMissBubbles uint64",
		"WishJump.HighCorrect uint64",
		"WishJump.HighMispred uint64",
		"WishJump.LowCorrect uint64",
		"WishJump.LowMispred uint64",
		"WishJump.LowEarly uint64",
		"WishJump.LowLate uint64",
		"WishJump.LowNoExit uint64",
		"WishJoin.HighCorrect uint64",
		"WishJoin.HighMispred uint64",
		"WishJoin.LowCorrect uint64",
		"WishJoin.LowMispred uint64",
		"WishJoin.LowEarly uint64",
		"WishJoin.LowLate uint64",
		"WishJoin.LowNoExit uint64",
		"WishLoop.HighCorrect uint64",
		"WishLoop.HighMispred uint64",
		"WishLoop.LowCorrect uint64",
		"WishLoop.LowMispred uint64",
		"WishLoop.LowEarly uint64",
		"WishLoop.LowLate uint64",
		"WishLoop.LowNoExit uint64",
		"L1I.Accesses uint64",
		"L1I.Misses uint64",
		"L1D.Accesses uint64",
		"L1D.Misses uint64",
		"L2.Accesses uint64",
		"L2.Misses uint64",
		"Mem.Accesses uint64",
		"Mem.Misses uint64",
		"Acct.Buckets [8]uint64",
		"Branches []obs.BranchStat",
		"Branches[].PC int",
		"Branches[].Retired uint64",
		"Branches[].Mispredicts uint64",
		"Branches[].Flushes uint64",
		"Branches[].FlushCycles uint64",
		"Branches[].ConfHigh uint64",
		"Branches[].ConfLow uint64",
		"Halted bool",
	}
	got := fieldPins(reflect.TypeOf(Result{}), "")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cpu.Result's field set changed — the binary codec no longer covers it.\n"+
			"Update AppendResult/DecodeResult, bump ResultCodecVersion, regenerate the golden "+
			"(-update-codec-golden), then update this pin.\ngot:\n  %v\nwant:\n  %v", got, want)
	}
}

// fieldPins flattens a struct type into "path type" strings, expanding
// nested structs and slice-of-struct element fields.
func fieldPins(t reflect.Type, prefix string) []string {
	var pins []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := prefix + f.Name
		switch {
		case f.Type.Kind() == reflect.Struct && f.Type.NumField() > 0:
			pins = append(pins, fieldPins(f.Type, path+".")...)
		case f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
			pins = append(pins, fmt.Sprintf("%s %s", path, f.Type))
			pins = append(pins, fieldPins(f.Type.Elem(), path+"[].")...)
		default:
			pins = append(pins, fmt.Sprintf("%s %s", path, f.Type))
		}
	}
	return pins
}

// FuzzResultCodec: arbitrary bytes never panic the decoder, and any
// accepted frame re-encodes to the identical consumed prefix (the
// layout is bijective) and matches its JSON serialization through the
// round trip.
func FuzzResultCodec(f *testing.F) {
	f.Add(AppendResult(nil, fixtureResult()))
	f.Add(AppendResult(nil, &Result{}))
	f.Add([]byte("WR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		n, err := DecodeResult(data, &r)
		if err != nil {
			if !errors.Is(err, ErrResultCodec) {
				t.Fatalf("decode error %v does not wrap ErrResultCodec", err)
			}
			return
		}
		re := AppendResult(nil, &r)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted frame does not re-encode to itself:\nin:  %x\nout: %x", data[:n], re)
		}
		var r2 Result
		if _, err := DecodeResult(re, &r2); err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		j1, _ := json.Marshal(&r)
		j2, _ := json.Marshal(&r2)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("JSON differential mismatch:\n%s\n%s", j1, j2)
		}
	})
}

// BenchmarkResultCodec measures the binary codec's steady-state
// throughput over the fully-populated fixture — reused buffers, so
// allocs/op must report 0 (the property TestResultCodecZeroAlloc
// enforces).
func BenchmarkResultCodec(b *testing.B) {
	r := fixtureResult()
	frame := AppendResult(nil, r)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		buf := make([]byte, 0, EncodedResultSize(r))
		for i := 0; i < b.N; i++ {
			buf = AppendResult(buf[:0], r)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		var dec Result
		if _, err := DecodeResult(frame, &dec); err != nil {
			b.Fatal(err) // first decode allocates the branch slice; reuse after
		}
		for i := 0; i < b.N; i++ {
			if _, err := DecodeResult(frame, &dec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
