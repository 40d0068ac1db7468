package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"wishbranch/internal/cpu"
)

// workers is the worker and connection count of every workload, sized
// for a 2-CPU machine; a fixed count keeps runs comparable across
// machines.
const workers = 2

// runConfig is everything a run depends on besides the code under test.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// campaignScale sizes the three campaign workloads and hotScale
	// sim-hotloop.
	campaignScale, hotScale float64
	// Set-up runs at least setupReps times, and again while all set-ups
	// so far took under setupSeconds (at most maxSetups times); setup_s
	// is the median.
	setupReps    int
	setupSeconds float64
	// warmups iterations run before the measured ones and are not
	// measured: the first iteration of a process pays one-time costs
	// (code page-in, the machine-signature cache) and ran 5-10% slower.
	warmups int
	// maxIters, when positive, ends the run after that many measured
	// iterations instead of after seconds (tests use it).
	maxIters int
}

// defaultConfig is the benchmark's configuration. The campaign scale is
// the smallest at which every experiment renders: a cold campaign then
// takes about 3 s, so a run measures several, and a result's size, which
// is what warm and remote iterations move, hardly depends on scale.
func defaultConfig(seed int64, seconds float64, trace bool) runConfig {
	return runConfig{
		seed: seed, seconds: seconds, trace: trace,
		campaignScale: 0.02, hotScale: 2.0,
		setupReps: 3, setupSeconds: 1, warmups: 1,
	}
}

const maxSetups = 25

func scaleKey(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }

// benchWorkload is one benchmark workload. The runner times setup and
// iterate; the checks run outside the timed region.
type benchWorkload interface {
	// setup prepares the state iterations need, replacing any earlier
	// set-up's state.
	setup(r *runner) error
	// verifySetup checks what the last setup produced.
	verifySetup(r *runner)
	// iterate runs one iteration; tr is nil on untraced iterations.
	iterate(r *runner, tr *tracer) error
	// verify checks the outputs of the iteration that just ran, then
	// releases them. On traced iterations m is non-nil, and verify adds
	// the per-layer values that are not span sums: counters, sizes and
	// replayed timings.
	verify(r *runner, m map[string]float64)
	// digests are the run's correctness witnesses, which must not depend
	// on the seed.
	digests() map[string]string
	close()
}

func newWorkload(name string, cfg runConfig) (benchWorkload, bool) {
	switch name {
	case "cold-campaign":
		return &coldCampaign{scale: cfg.campaignScale}, true
	case "warm-campaign":
		return &warmCampaign{scale: cfg.campaignScale}, true
	case "remote-campaign":
		return &remoteCampaign{scale: cfg.campaignScale}, true
	case "sim-hotloop":
		return &simHotloop{scale: cfg.hotScale}, true
	}
	return nil, false
}

// workloadNames lists the workloads in the order -workload all runs
// them.
var workloadNames = []string{"cold-campaign", "warm-campaign", "remote-campaign", "sim-hotloop"}

// runner carries one run's state shared by the workloads.
type runner struct {
	cfg  runConfig
	rng  *rand.Rand
	base string // private temp directory, removed at the end of the run
	log  io.Writer

	// tr records the traced iterations' spans; nil when the run is not
	// traced.
	tr *tracer
	// cal calibrates the current set-up or untraced iteration; nil
	// during traced iterations, whose times are not end-to-end metrics.
	cal *calibration
	// root is the current iteration's root span and warmSpan the
	// current lab.warm span; both are set on the main goroutine before
	// the goroutines that read them start.
	root, warmSpan int32

	attempted, failed int

	mu      sync.Mutex
	samples map[string][]float64 // latency samples (ms) from untraced iterations

	buf []byte // frame scratch for verify
}

// check records one correctness check.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(r.log, "bench: FAIL: "+format+"\n", args...)
	}
}

// checkErr records one operation that must not fail.
func (r *runner) checkErr(err error, what string) {
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return
	}
	r.check(true, "")
}

// sample records one latency sample in milliseconds.
func (r *runner) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

// sameFrame reports whether res encodes to exactly ref.
func (r *runner) sameFrame(res *cpu.Result, ref []byte) bool {
	if res == nil {
		return false
	}
	r.buf = cpu.AppendResult(r.buf[:0], res)
	return bytes.Equal(r.buf, ref)
}

// perm returns a seeded permutation of n indices.
func (r *runner) perm(n int) []int { return r.rng.Perm(n) }

// calSamples is how many kernel samples open each calibrated interval:
// one sample is itself noisy.
const calSamples = 3

// calibrate starts the calibration of an interval about to be measured.
func (r *runner) calibrate() *calibration {
	c := &calibration{}
	for i := 0; i < calSamples; i++ {
		c.sample()
	}
	return c
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// hostInfo records what the numbers were measured on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	TempFS     string `json:"temp_fs"`
}

func currentHost() hostInfo {
	return hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		TempFS: fsType(os.TempDir()),
	}
}

// metricValue is one reported metric with the samples whose median it
// is (iterations, set-ups, or traced iterations).
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// latencyStat summarizes a latency distribution with its sample count
// and the highest percentile that has at least minBeyond samples above
// it (TailP is 0 when there is none).
type latencyStat struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50_ms"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail_ms,omitempty"`
}

func latencyOf(xs []float64) latencyStat {
	st := latencyStat{N: len(xs), P50: nearestRank(xs, 50)}
	if p := tailPercentile(len(xs)); p > 0 {
		st.TailP, st.Tail = p, nearestRank(xs, p)
	}
	return st
}

// runRecord is one run's result, as appended to the -out file.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Host       hostInfo               `json:"host"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Iterations int                    `json:"iterations"`
	Digests    map[string]string      `json:"digests"`
	Metrics    map[string]metricValue `json:"metrics"`
	Latency    map[string]latencyStat `json:"latency,omitempty"`
	// Raw holds the end-to-end times before calibration, and the
	// median calibration kernel time.
	Raw map[string]float64 `json:"raw,omitempty"`

	spans    []span      // traced runs: every recorded span
	analyses []iterSpans // traced runs: one per traced iteration
}

// runWorkload runs one workload: its set-up, repeated; warm-up
// iterations; then measured iterations until the time is up. With
// tracing, odd iterations are traced and even ones are not, so the
// overhead is measured on interleaved iterations.
func runWorkload(name string, cfg runConfig, log io.Writer) (*runRecord, error) {
	w, ok := newWorkload(name, cfg)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	base, err := os.MkdirTemp("", "wishbranch-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	defer w.close()
	r := &runner{
		cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), base: base, log: log,
		root: -1, warmSpan: -1, samples: map[string][]float64{},
	}
	if cfg.trace {
		r.tr = newTracer()
	}

	// Every set-up and iteration starts from a collected heap whose free
	// memory went back to the OS, as a fresh process would: otherwise
	// garbage one leaves is charged to the next, and later iterations
	// reuse pages earlier ones paid to fault in, so iteration times
	// drift down within a run. A cheap set-up repeats until setupSeconds
	// have passed, so its median rests on more samples.
	var setups, setupsRaw []float64
	for total := 0.0; len(setups) < cfg.setupReps || (total < cfg.setupSeconds && len(setups) < maxSetups); {
		debug.FreeOSMemory()
		r.cal = r.calibrate()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		ms := msSince(t0)
		setupsRaw = append(setupsRaw, ms/1000)
		setups = append(setups, r.cal.scale(ms, false)/1000)
		total += ms / 1000
	}
	w.verifySetup(r)
	for i := 0; i < cfg.warmups; i++ {
		debug.FreeOSMemory()
		r.cal = nil
		r.checkErr(w.iterate(r, nil), name+": warm-up iteration")
		w.verify(r, nil)
	}
	r.samples = map[string][]float64{}
	// max_rss_mb covers the measured iterations only; set-up has setup_s.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(log, "bench: %v; max_rss_mb includes set-up\n", err)
	}

	minIters := 1
	if cfg.trace {
		minIters = 2
	}
	var walls, cpus, wallsRaw, cpusRaw, kernels []float64
	var layerVals []map[string]float64
	// overheads pairs each traced iteration with the untraced one just
	// before it, minus that one's calibration time, so host drift
	// between distant iterations does not enter the overhead.
	var overheads []float64
	var lastNet float64
	start := time.Now()
	for it := 0; ; it++ {
		if cfg.maxIters > 0 {
			if it >= cfg.maxIters {
				break
			}
		} else if it >= minIters && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		var itr *tracer
		var m map[string]float64
		if cfg.trace && it%2 == 1 {
			itr, m = r.tr, map[string]float64{}
		}
		debug.FreeOSMemory()
		r.cal = nil
		if itr == nil {
			r.cal = r.calibrate()
		}
		r.root = itr.beginIter(it)
		c0, t0 := cpuTime(), time.Now()
		err := w.iterate(r, itr)
		wall, cpu := msSince(t0), float64(cpuTime()-c0)/float64(time.Millisecond)
		itr.end(r.root)
		r.checkErr(err, name+": iteration")
		w.verify(r, m)
		if itr != nil {
			overheads = append(overheads, wall/lastNet-1)
			layerVals = append(layerVals, m)
			continue
		}
		lastNet = r.cal.net(wall, false)
		wallsRaw, cpusRaw = append(wallsRaw, wall), append(cpusRaw, cpu)
		walls = append(walls, r.cal.scale(wall, false))
		cpus = append(cpus, r.cal.scale(cpu, true))
		kernels = append(kernels, r.cal.kernelMs())
	}

	rec := &runRecord{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: currentHost(), Iterations: len(walls) + len(overheads),
		Digests: w.digests(), Metrics: map[string]metricValue{},
		Latency: map[string]latencyStat{"iter": latencyOf(wallsRaw)},
		Raw: map[string]float64{
			"setup_s": median(setupsRaw), "iter_p50_ms": median(wallsRaw),
			"cpu_ms_per_iter": median(cpusRaw), "kernel_ms": median(kernels),
		},
	}
	for k, xs := range r.samples {
		rec.Latency[k] = latencyOf(xs)
	}
	if cfg.trace {
		rec.spans = r.tr.snapshot()
		var perIter []map[string]float64
		perIter, rec.analyses = layerMetrics(rec.spans, layerVals, r.samples)
		for _, d := range perLayer {
			var xs []float64
			for _, m := range perIter {
				xs = append(xs, m[d.Name])
			}
			rec.Metrics[d.Name] = metricValue{Value: median(xs), Unit: d.Unit, Samples: xs}
		}
		rec.Metrics["trace.overhead"] = metricValue{Value: median(overheads), Unit: "ratio", Samples: overheads}
		cov := rec.Metrics["trace.coverage"]
		r.check(cov.Value >= 0.9, "%s: layer self time covers %.1f%% of busy time, want >= 90%%", name, 100*cov.Value)
	}
	// A traced run measures these on its untraced iterations, so they
	// are in its record; only an untraced run reports them.
	rec.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Samples: setups}
	rec.Metrics["iter_p50_ms"] = metricValue{Value: median(walls), Unit: "ms", Samples: walls}
	rec.Metrics["cpu_ms_per_iter"] = metricValue{Value: median(cpus), Unit: "ms", Samples: cpus}
	rec.Metrics["max_rss_mb"] = metricValue{Value: peakRSSMB(), Unit: "MB"}
	rec.Attempted, rec.Failed = r.attempted, r.failed
	rec.Correct = r.failed == 0
	return rec, nil
}

// layerMetrics turns each traced iteration's spans and counts into the
// per-layer metric values, and returns the span analyses too.
func layerMetrics(spans []span, counts []map[string]float64, samples map[string][]float64) (out []map[string]float64, analyses []iterSpans) {
	groups := splitByIter(spans)
	var iters []int32
	for it := range groups {
		iters = append(iters, it)
	}
	sort.Slice(iters, func(i, j int) bool { return iters[i] < iters[j] })
	run, batch := samples["api.run"], samples["api.batch"]
	for i, it := range iters {
		a := analyze(groups[it], workers)
		m := map[string]float64{}
		if i < len(counts) {
			for k, v := range counts[i] {
				m[k] = v
			}
		}
		for name, metric := range map[string]string{
			"cpu.run": "cpu.run_s", "cpu.new": "cpu.new_s", "artifact.get": "artifact.get_s",
			"lab.warm": "lab.warm_s", "store.put": "store.put_s", "store.get": "store.get_s",
			"journal.append": "journal.append_s", "exp.runs": "exp.runs_s", "exp.render": "exp.render_s",
			"serve.handler": "serve.handler_s", "api.run": "api.run_s",
			"api.campaign_stream": "api.campaign_stream_s", "api.campaign_json": "api.campaign_json_s",
		} {
			m[metric] = a.dur[name]
		}
		m["store.puts"] = float64(a.count["store.put"])
		m["store.gets"] = float64(a.count["store.get"])
		m["journal.appends"] = float64(a.count["journal.append"])
		m["serve.requests"] = float64(a.count["serve.handler"])
		m["api.transport_s"] = a.self["api.run"] + a.self["api.campaign_stream"] + a.self["api.campaign_json"]
		m["lab.worker_idle_s"] = a.warmIdle
		if u := m["cpu.retired_uops"]; u > 0 {
			m["cpu.ns_per_uop"] = 1e9 * m["cpu.run_s"] / u
		}
		if gets := float64(a.count["artifact.get"]); gets > 0 {
			m["artifact.hit_ratio"] = 1 - m["artifact.builds"]/gets
		}
		if a.busy > 0 {
			m["trace.coverage"] = a.covered / a.busy
		}
		m["trace.iterations"] = float64(len(iters))
		m["api.run_samples"] = float64(len(run))
		m["api.run_p50_ms"] = nearestRank(run, 50)
		if beyond(len(run), 99) >= minBeyond { // else too few samples: reads 0
			m["api.run_p99_ms"] = nearestRank(run, 99)
		}
		m["api.batch_samples"] = float64(len(batch))
		m["api.batch_p50_ms"] = nearestRank(batch, 50)
		out = append(out, m)
		analyses = append(analyses, a)
	}
	return out, analyses
}
