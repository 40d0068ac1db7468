package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"wishbranch/internal/artifact"
	"wishbranch/internal/compiler"
	"wishbranch/internal/cpu"
	"wishbranch/internal/exp"
	"wishbranch/internal/journal"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile holds the correctness witnesses. None depends on the seed.
type goldenFile struct {
	// Render is the SHA-256 of the whole rendered campaign, the bytes
	// `wishbench -exp all -scale S` prints, by scale.
	Render map[string]string `json:"render_sha256"`
	// Hotloop is each sim-hotloop case's retired µop count, by scale.
	Hotloop map[string]map[string]uint64 `json:"hotloop_retired_uops"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: testdata/golden.json: %v", err))
	}
	return g
}()

// checkRender compares a rendered campaign's digest with the golden one.
func (r *runner) checkRender(got string, scale float64) {
	want, ok := golden.Render[scaleKey(scale)]
	r.check(ok && got == want, "rendered campaign at scale %s has SHA-256 %s, golden %q", scaleKey(scale), got, want)
}

// runSet is the campaign's run-set: the union of every experiment's
// declared runs, repeats included, in paper order, as wishbench builds
// it.
func runSet(l *exp.Lab, tr *tracer, parent int32) []lab.Spec {
	id := tr.begin("exp.runs", parent)
	defer tr.end(id)
	var specs []lab.Spec
	for _, e := range exp.All() {
		if e.Runs != nil {
			specs = append(specs, e.Runs(l)...)
		}
	}
	return specs
}

// render renders every experiment in paper order, exactly as wishbench
// prints them.
func render(l *exp.Lab, w io.Writer, tr *tracer, parent int32) error {
	for _, e := range exp.All() {
		id := tr.begin("exp.render", parent)
		fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
		err := exp.Run(e, l, w)
		fmt.Fprintln(w)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("render %s: %w", e.ID, err)
		}
	}
	return nil
}

// renderDigest renders the campaign into a SHA-256.
func renderDigest(l *exp.Lab, tr *tracer, parent int32) (string, error) {
	h := sha256.New()
	err := render(l, h, tr, parent)
	return hex.EncodeToString(h.Sum(nil)), err
}

// unique returns the distinct specs of specs and their keys, first
// occurrence first.
func unique(specs []lab.Spec) (out []lab.Spec, keys []string) {
	seen := map[string]bool{}
	for _, s := range specs {
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out, keys = append(out, s), append(keys, k)
		}
	}
	return out, keys
}

// permuted returns specs in a seeded order. Submission order moves
// scheduling, never results.
func permuted(r *runner, specs []lab.Spec) []lab.Spec {
	out := make([]lab.Spec, len(specs))
	for i, j := range r.perm(len(specs)) {
		out[i] = specs[j]
	}
	return out
}

// checkSnapshot validates a result's stats snapshot, which enforces the
// stall-bucket partition identity.
func (r *runner) checkSnapshot(s lab.Spec, res *cpu.Result, err error) {
	if err == nil {
		err = s.Snapshot(res).Validate()
	}
	r.checkErr(err, s.String())
}

// produceStats counts what a traced acquisition path did.
type produceStats struct{ hits, sims atomic.Int64 }

// produce is the lab's acquisition path for a fresh key (store lookup,
// then build, simulate and persist) rebuilt from public calls so each
// step gets its own span. Traced iterations install it as the lab's
// Backend and leave the lab's own Store unset, so the lab still does
// everything else (memo, dedup, scheduling, OnResult) itself.
func (r *runner) produce(tr *tracer, store *lab.Store, st *produceStats) func(context.Context, lab.Spec) (*cpu.Result, error) {
	return func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		id := tr.begin("lab.produce", r.warmSpan)
		defer tr.end(id)
		if err := s.Validate(); err != nil {
			return nil, err
		}
		k := s.Keyed()
		sp := tr.begin("store.get", id)
		res := store.GetHashed(k.Key, k.Hash)
		tr.end(sp)
		if res != nil {
			st.hits.Add(1)
			return res, nil
		}
		st.sims.Add(1)
		sp = tr.begin("artifact.get", id)
		art, err := artifact.Get(artifactKey(s))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("cpu.new", id)
		c, err := cpu.New(s.Machine, art.Prog, art.Mem)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("cpu.run", id)
		res, err = c.RunContext(ctx, s.MaxCycles)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("store.put", id)
		err = store.PutHashed(k.Key, k.Hash, res)
		tr.end(sp)
		return res, err
	}
}

// calEvery is how many simulations a worker runs per calibration sample
// it takes inside a campaign: often enough to follow the host through
// the campaign, rarely enough to cost about 1% of it.
const calEvery = 8

// calibrated is the lab's own simulation path, Spec.SimulateContext,
// with a calibration sample taken on the worker before every
// calEvery-th simulation.
func calibrated(cal *calibration) func(context.Context, lab.Spec) (*cpu.Result, error) {
	var n atomic.Int64
	return func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		if n.Add(1)%calEvery == 0 {
			cal.sampleInside(workers)
		}
		return s.SimulateContext(ctx)
	}
}

func artifactKey(s lab.Spec) artifact.Key {
	return artifact.Key{Bench: s.Bench, Input: s.Input, Variant: s.Variant, Scale: s.Scale, Thresholds: s.Thresholds}
}

// labCounts adds the lab's acquisition counters. fresh and diskHits
// come from the traced acquisition path, which the lab counts as
// backend calls.
func labCounts(m map[string]float64, c lab.Counters, st *produceStats) {
	fresh, disk, mem := float64(st.sims.Load()), float64(st.hits.Load()), float64(c.MemHits)
	m["lab.fresh"], m["lab.disk_hits"], m["lab.mem_hits"] = fresh, disk, mem
	if total := fresh + disk + mem; total > 0 {
		m["lab.hit_ratio"] = (disk + mem) / total
	}
	if gets := fresh + disk; gets > 0 {
		m["store.hit_ratio"] = disk / gets
	}
}

// simCounts adds the simulated work of results.
func simCounts(m map[string]float64, results []*cpu.Result) {
	var retired, cycles, fetched float64
	for _, res := range results {
		if res != nil {
			retired += float64(res.RetiredUops)
			cycles += float64(res.Cycles)
			fetched += float64(res.FetchedUops)
		}
	}
	m["cpu.retired_uops"], m["cpu.cycles"] = retired, cycles
	if fetched > 0 {
		m["cpu.retired_per_fetched"] = retired / fetched
	}
}

// The replay helpers re-run, outside the timed iteration, work that
// happens inside another package's call and so cannot get a span of its
// own from here.

// replayKeying times one Spec.Keyed pass over specs.
func replayKeying(specs []lab.Spec) float64 {
	t0 := time.Now()
	for _, s := range specs {
		_ = s.Keyed()
	}
	return time.Since(t0).Seconds()
}

// replayCodec times encoding and decoding each result once with the
// binary result codec and returns the bytes one pass moves.
func replayCodec(results []*cpu.Result) (encode, decode float64, bytes int) {
	var buf []byte
	var dec cpu.Result
	for _, res := range results {
		t0 := time.Now()
		buf = cpu.AppendResult(buf[:0], res)
		t1 := time.Now()
		_, _ = cpu.DecodeResult(buf, &dec) // the frame was just encoded; decode cannot fail
		encode += t1.Sub(t0).Seconds()
		decode += time.Since(t1).Seconds()
		bytes += len(buf)
	}
	return encode, decode, bytes
}

// codecCounts adds the codec's share of an iteration that encoded and
// decoded every result encodes and decodes times.
func codecCounts(m map[string]float64, results []*cpu.Result, encodes, decodes int) {
	enc, dec, n := replayCodec(results)
	m["codec.encode_s"] = enc * float64(encodes)
	m["codec.decode_s"] = dec * float64(decodes)
	m["codec.frame_bytes"] = float64(n * (encodes + decodes))
}

// replayBuilds times workload.Build and compiler.CompileOpt for each
// distinct artifact of specs: the two halves of an artifact build.
func replayBuilds(specs []lab.Spec) (build, compile float64) {
	seen := map[artifact.Key]bool{}
	for _, s := range specs {
		k := artifactKey(s)
		if seen[k] {
			continue
		}
		seen[k] = true
		b, ok := workload.ByName(k.Bench)
		if !ok {
			continue
		}
		t0 := time.Now()
		src, _ := b.Build(k.Input, k.Scale)
		t1 := time.Now()
		_, _ = compiler.CompileOpt(src, k.Variant, k.Thresholds) // compiled fine inside the iteration
		build += t1.Sub(t0).Seconds()
		compile += time.Since(t1).Seconds()
	}
	return build, compile
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // a partial size is still a size
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

// coldCampaign regenerates the whole campaign from nothing, as
// `wishbench -exp all -journal D -cache-dir S` does: empty artifact
// cache, fresh store and journal, every simulation run, everything
// rendered.
type coldCampaign struct {
	scale float64
	specs []lab.Spec // the run-set, repeats included
	uniq  []lab.Spec // its distinct specs

	// The last iteration's state, for verify.
	l        *exp.Lab
	dir      string
	jnl      *journal.Journal
	jerrs    atomic.Int64
	counters lab.Counters
	prod     *produceStats
	render   string
}

// setup only enumerates the run-set: everything else a cold campaign
// needs is part of what it measures.
func (c *coldCampaign) setup(r *runner) error {
	l := exp.NewLab()
	l.Scale = c.scale
	c.specs = runSet(l, nil, -1)
	c.uniq, _ = unique(c.specs)
	return nil
}

func (c *coldCampaign) verifySetup(r *runner) {
	r.check(len(c.uniq) > 0, "cold-campaign: empty run-set")
}

func (c *coldCampaign) iterate(r *runner, tr *tracer) error {
	artifact.Reset()
	dir, err := os.MkdirTemp(r.base, "cold-")
	if err != nil {
		return err
	}
	c.dir = dir
	l := exp.NewLab()
	l.Scale = c.scale
	l.Sched.Workers = workers
	c.l, c.prod = l, &produceStats{}

	id := tr.begin("store.open", r.root)
	store, err := lab.OpenStore(filepath.Join(dir, "store"))
	tr.end(id)
	if err != nil {
		return err
	}
	specs := permuted(r, runSet(l, tr, r.root))
	_, keys := unique(specs) // the journal is named by the ordered distinct keys, as in wishbench
	id = tr.begin("journal.open", r.root)
	j, rep, err := journal.Open(journal.CampaignPath(filepath.Join(dir, "journal"), keys))
	if err == nil {
		c.jnl = j
		err = j.AppendSpecSet(keys)
	}
	tr.end(id)
	if err != nil {
		return err
	}
	onErr := func(error) { c.jerrs.Add(1) }
	if tr == nil {
		l.Sched.Store = store
		l.Sched.Backend = calibrated(r.cal)
		journal.Attach(l.Sched, j, rep, keys, onErr)
	} else {
		l.Sched.Backend = r.produce(tr, store, c.prod)
		l.Sched.OnResult = func(k lab.Keyed, res *cpu.Result) {
			id := tr.begin("journal.append", r.warmSpan)
			if err := j.Append(k.Key, res); err != nil {
				onErr(err)
			}
			tr.end(id)
		}
	}

	r.warmSpan = tr.begin("lab.warm", r.root)
	l.Warm(specs)
	tr.end(r.warmSpan)
	c.render, err = renderDigest(l, tr, r.root)
	c.counters = l.Sched.Counters()
	return errors.Join(err, j.Close())
}

func (c *coldCampaign) verify(r *runner, m map[string]float64) {
	defer c.close()
	if c.l == nil {
		return
	}
	r.checkRender(c.render, c.scale)
	results := make([]*cpu.Result, 0, len(c.uniq))
	for _, s := range c.uniq {
		res, err := c.l.Sched.Result(s)
		r.checkSnapshot(s, res, err)
		results = append(results, res)
	}
	if c.jnl != nil {
		frames, _ := c.jnl.Stats()
		r.check(frames == uint64(len(c.uniq)) && c.jerrs.Load() == 0,
			"cold-campaign: journal holds %d frames with %d append errors, want %d frames", frames, c.jerrs.Load(), len(c.uniq))
	}
	if m == nil {
		return
	}
	labCounts(m, c.counters, c.prod)
	simCounts(m, results)
	m["artifact.builds"] = float64(artifact.Len())
	m["workload.build_s"], m["compiler.compile_s"] = replayBuilds(c.uniq)
	m["lab.key_s"] = replayKeying(c.specs)
	codecCounts(m, results, 2, 0) // each result is encoded for the store and the journal
	m["store.bytes"] = dirBytes(filepath.Join(c.dir, "store"))
	m["journal.bytes"] = dirBytes(filepath.Join(c.dir, "journal"))
}

func (c *coldCampaign) digests() map[string]string {
	return map[string]string{"render_sha256": c.render}
}

// close drops the iteration's state: its lab pins every simulator it
// ran.
func (c *coldCampaign) close() {
	if c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
	}
	c.l, c.jnl = nil, nil
	c.jerrs.Store(0)
}

// warmCampaign re-renders the campaign from a full store, as a second
// `wishbench -exp all -cache-dir S` does: a fresh lab (empty memo) per
// iteration, every result read from the store, nothing simulated.
type warmCampaign struct {
	scale float64
	dir   string
	store *lab.Store
	fill  *exp.Lab // the lab that filled the store, until verifySetup
	specs []lab.Spec
	uniq  []lab.Spec
	ref   map[string][]byte // the store's results, encoded
	bytes float64           // size of the store

	// The last iteration's state, for verify.
	l        *exp.Lab
	counters lab.Counters
	prod     *produceStats
	render   string
}

// setup fills a fresh store by simulating the whole run-set, then reads
// it all back through a lab.
func (c *warmCampaign) setup(r *runner) error {
	c.close()
	dir, err := os.MkdirTemp(r.base, "warm-")
	if err != nil {
		return err
	}
	c.dir = dir
	c.fill, c.store, err = filledLab(dir, c.scale, r.cal)
	return err
}

// fillChunk bounds how many distinct specs one lab simulates while
// filling a store. A memoized result keeps its whole simulator
// reachable (cpu.Run returns a pointer into the CPU, about 3 MB each),
// so one lab over the full run-set would hold every simulator of the
// campaign at once.
const fillChunk = 32

// filledLab simulates the campaign's run-set at scale into a fresh
// store under dir, fillChunk distinct specs per lab, then returns a lab
// whose memo table holds every result as read back from the store.
func filledLab(dir string, scale float64, cal *calibration) (*exp.Lab, *lab.Store, error) {
	artifact.Reset()
	store, err := lab.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	newLab := func() *exp.Lab {
		l := exp.NewLab()
		l.Scale = scale
		l.Sched.Workers = workers
		l.Sched.Store = store
		return l
	}
	l := newLab()
	specs := runSet(l, nil, -1)
	uniq, _ := unique(specs)
	sim := calibrated(cal)
	for i := 0; i < len(uniq); i += fillChunk {
		fl := newLab()
		fl.Sched.Backend = sim
		fl.Warm(uniq[i:min(i+fillChunk, len(uniq))])
		if c := fl.Sched.Counters(); c.Errors > 0 {
			return nil, nil, fmt.Errorf("filling the store: %d simulations failed", c.Errors)
		}
	}
	artifact.Reset() // iterations never simulate; drop the programs
	l.Warm(specs)
	return l, store, nil
}

func (c *warmCampaign) verifySetup(r *runner) {
	c.specs, c.uniq, c.ref = references(r, c.fill)
	c.fill = nil
	c.bytes = dirBytes(c.dir)
}

// references validates every result of l's run-set and returns the
// run-set, its distinct specs and their encoded results: the reference
// later iterations must reproduce byte for byte.
func references(r *runner, l *exp.Lab) (specs, uniq []lab.Spec, ref map[string][]byte) {
	specs = runSet(l, nil, -1)
	uniq, _ = unique(specs)
	ref = make(map[string][]byte, len(uniq))
	c := l.Sched.Counters()
	r.check(c.Errors == 0 && c.Fresh == 0, "set-up: %d errors, %d simulations after the store was filled", c.Errors, c.Fresh)
	for _, s := range uniq {
		res, err := l.Sched.Result(s)
		r.checkSnapshot(s, res, err)
		if err == nil {
			ref[s.Key()] = cpu.AppendResult(nil, res)
		}
	}
	return specs, uniq, ref
}

func (c *warmCampaign) iterate(r *runner, tr *tracer) error {
	l := exp.NewLab()
	l.Scale = c.scale
	l.Sched.Workers = workers
	c.l, c.prod = l, &produceStats{}
	if tr == nil {
		l.Sched.Store = c.store
	} else {
		l.Sched.Backend = r.produce(tr, c.store, c.prod)
	}
	specs := permuted(r, runSet(l, tr, r.root))
	r.warmSpan = tr.begin("lab.warm", r.root)
	l.Warm(specs)
	tr.end(r.warmSpan)
	var err error
	c.render, err = renderDigest(l, tr, r.root)
	c.counters = l.Sched.Counters()
	return err
}

func (c *warmCampaign) verify(r *runner, m map[string]float64) {
	if c.l == nil {
		return
	}
	r.checkRender(c.render, c.scale)
	results := checkAgainst(r, c.l, c.uniq, c.ref)
	fresh := c.counters.Fresh
	if m != nil { // traced: the lab counted every acquisition as a backend call
		fresh = uint64(c.prod.sims.Load())
	}
	r.check(fresh == 0, "warm-campaign: %d simulations ran against a full store", fresh)
	c.l = nil
	if m == nil {
		return
	}
	labCounts(m, c.counters, c.prod)
	m["lab.key_s"] = replayKeying(c.specs)
	codecCounts(m, results, 0, 1) // each result is decoded from its store record
	m["store.bytes"] = c.bytes
}

// checkAgainst checks that l holds, for every spec of uniq, a result
// that encodes byte-identically to its reference, and returns the
// results.
func checkAgainst(r *runner, l *exp.Lab, uniq []lab.Spec, ref map[string][]byte) []*cpu.Result {
	out := make([]*cpu.Result, 0, len(uniq))
	for _, s := range uniq {
		res, err := l.Sched.Result(s)
		r.check(err == nil && r.sameFrame(res, ref[s.Key()]), "%s: result differs from the set-up's (%v)", s, err)
		out = append(out, res)
	}
	return out
}

func (c *warmCampaign) digests() map[string]string {
	return map[string]string{"render_sha256": c.render}
}

func (c *warmCampaign) close() {
	c.fill = nil
	if c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
	}
}
