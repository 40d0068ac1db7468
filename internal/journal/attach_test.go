package journal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// synthCampaign builds n synthetic specs whose keys are computable
// without a machine config, plus a counting backend that produces a
// deterministic result per spec. The backend path skips Validate, so
// these specs never need a real workload or machine.
func synthCampaign(n int) (specs []lab.Spec, keys []string, backend func(context.Context, lab.Spec) (*cpu.Result, error), calls *atomic.Uint64) {
	byBench := make(map[string]*cpu.Result, n)
	for i := 0; i < n; i++ {
		s := lab.Spec{Bench: fmt.Sprintf("synthetic-%d", i), Scale: 1}
		specs = append(specs, s)
		keys = append(keys, s.Key())
		byBench[s.Bench] = testResult(i)
	}
	calls = new(atomic.Uint64)
	backend = func(_ context.Context, s lab.Spec) (*cpu.Result, error) {
		calls.Add(1)
		r, ok := byBench[s.Bench]
		if !ok {
			return nil, fmt.Errorf("unknown synthetic bench %q", s.Bench)
		}
		return r, nil
	}
	return specs, keys, backend, calls
}

// render serializes the campaign's results in key order — a stand-in
// for wishbench's table rendering, whose byte-identity across resumes
// is the tentpole invariant.
func render(t *testing.T, l *lab.Lab, specs []lab.Spec) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, s := range specs {
		r, err := l.Result(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %x\n", s.Bench, resultBytes(r))
	}
	return out.Bytes()
}

// runCampaign runs the full synthetic campaign against journal path,
// returning the rendered output.
func runCampaign(t *testing.T, path string, specs []lab.Spec, keys []string,
	backend func(context.Context, lab.Spec) (*cpu.Result, error)) ([]byte, *lab.Lab, int) {
	t.Helper()
	l := lab.New()
	l.Workers = 1 // deterministic append order → byte-identical journal
	l.Backend = backend
	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rep.Specs == nil {
		if err := j.AppendSpecSet(keys); err != nil {
			t.Fatal(err)
		}
	}
	resumed := Attach(l, j, rep, keys, func(err error) { t.Errorf("journal append: %v", err) })
	l.Warm(specs)
	return render(t, l, specs), l, resumed
}

// TestResumeAtEveryFrameBoundary is the end-to-end crash/resume
// property test: for every frame boundary of a completed campaign
// journal, a campaign restarted from that prefix (1) replays exactly
// the journaled results, (2) re-simulates only the missing suffix,
// (3) renders byte-identical output, and (4) regrows a byte-identical
// journal.
func TestResumeAtEveryFrameBoundary(t *testing.T) {
	const n = 6
	specs, keys, backend, calls := synthCampaign(n)
	dir := t.TempDir()

	fullPath := filepath.Join(dir, "full.wbj")
	fullOut, _, resumed := runCampaign(t, fullPath, specs, keys, backend)
	if resumed != 0 {
		t.Fatalf("fresh campaign resumed %d frames", resumed)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("fresh campaign made %d backend calls, want %d", got, n)
	}
	fullJournal, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, fullJournal)

	for bi, cut := range bounds {
		path := filepath.Join(dir, fmt.Sprintf("resume-%d.wbj", bi))
		if err := os.WriteFile(path, fullJournal[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		calls.Store(0)
		out, l, resumed := runCampaign(t, path, specs, keys, backend)

		wantResumed := bi - 1 // boundary 0 = header, 1 = spec set, 2+i = i+1 results
		if wantResumed < 0 {
			wantResumed = 0
		}
		if resumed != wantResumed {
			t.Errorf("boundary %d: resumed %d frames, want %d", bi, resumed, wantResumed)
		}
		if fresh := l.Counters().Fresh; fresh != uint64(n-wantResumed) {
			t.Errorf("boundary %d: %d fresh simulations, want %d", bi, fresh, n-wantResumed)
		}
		if got := calls.Load(); got != uint64(n-wantResumed) {
			t.Errorf("boundary %d: %d backend calls, want %d", bi, got, n-wantResumed)
		}
		if !bytes.Equal(out, fullOut) {
			t.Errorf("boundary %d: resumed output differs from uninterrupted output", bi)
		}
		regrown, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(regrown, fullJournal) {
			t.Errorf("boundary %d: regrown journal differs from uninterrupted journal", bi)
		}
	}
}

// TestSecondResumeIsFree: resuming a completed campaign must simulate
// nothing — every key comes from the journal replay.
func TestSecondResumeIsFree(t *testing.T) {
	specs, keys, backend, calls := synthCampaign(4)
	path := filepath.Join(t.TempDir(), "j.wbj")
	fullOut, _, _ := runCampaign(t, path, specs, keys, backend)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	calls.Store(0)
	out, l, resumed := runCampaign(t, path, specs, keys, backend)
	if resumed != len(keys) {
		t.Errorf("resumed %d frames, want %d", resumed, len(keys))
	}
	c := l.Counters()
	if c.Fresh != 0 || calls.Load() != 0 {
		t.Errorf("second resume ran %d fresh simulations (%d backend calls), want 0", c.Fresh, calls.Load())
	}
	if !bytes.Equal(out, fullOut) {
		t.Error("second resume output differs")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Error("second resume modified a complete journal")
	}
}

// TestSeededEntriesDoNotRefire: journal-replayed results must not be
// re-journaled (OnResult fires only for results this process acquired).
func TestSeededEntriesDoNotRefire(t *testing.T) {
	specs, keys, backend, _ := synthCampaign(3)
	path := filepath.Join(t.TempDir(), "j.wbj")
	runCampaign(t, path, specs, keys, backend)

	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	l := lab.New()
	l.Backend = backend
	Attach(l, j, rep, keys, nil)
	l.Warm(specs)
	if frames, resumed := j.Stats(); frames != resumed {
		t.Errorf("warm resume appended %d new frames", frames-resumed)
	}
}

// TestAttachKeepsStoreBound: Attach never writes the store, so
// replaying a journal into a lab whose store is bounded at a single
// record leaves the store within its bound, and the resume still needs
// no backend call — the memo table, not the store, carries it.
func TestAttachKeepsStoreBound(t *testing.T) {
	specs, keys, backend, calls := synthCampaign(4)
	path := filepath.Join(t.TempDir(), "j.wbj")
	runCampaign(t, path, specs, keys, backend)

	store, err := lab.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Put(keys[0], testResult(0)); err != nil {
		t.Fatal(err)
	}
	if err := store.SetMaxBytes(1 << 40); err != nil { // scan: learn the record's size
		t.Fatal(err)
	}
	if err := store.SetMaxBytes(store.Bytes()); err != nil { // bound: that one record
		t.Fatal(err)
	}
	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	l := lab.New()
	l.Backend = backend
	l.Store = store
	if resumed := Attach(l, j, rep, keys, func(err error) { t.Errorf("journal append: %v", err) }); resumed != len(keys) {
		t.Errorf("resumed %d results, want %d", resumed, len(keys))
	}
	if store.Bytes() > store.MaxBytes() {
		t.Errorf("store holds %d bytes over its %d-byte bound", store.Bytes(), store.MaxBytes())
	}
	for _, k := range keys[1:] {
		if store.Get(k) != nil {
			t.Errorf("Attach wrote replayed %s to the store", k)
		}
	}
	calls.Store(0)
	l.Warm(specs)
	if got := calls.Load(); got != 0 {
		t.Errorf("%d backend calls after a full resume, want 0", got)
	}
}
