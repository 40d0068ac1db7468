// Benchmarks that regenerate the paper's evaluation: one benchmark per
// table and figure (the same runners cmd/wishbench uses), plus
// microbenchmarks of the simulation substrates. Key results are
// attached as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and reports the reproduced numbers.
// Figure/table benchmarks run the workloads at a reduced scale to keep
// the suite fast; use cmd/wishbench for full-scale runs.
package wishbranch_test

import (
	"io"
	"testing"
	"time"

	"wishbranch/internal/bpred"
	"wishbranch/internal/cache"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/emu"
	"wishbranch/internal/exp"
	"wishbranch/internal/lab"
	"wishbranch/internal/obs"
	"wishbranch/internal/workload"
)

// benchScale shrinks the workloads so every experiment fits benchmark
// budgets.
const benchScale = 0.25

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		lab := benchLab()
		if err := exp.Run(e, lab, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLab returns a fresh serial lab at the benchmark scale.
func benchLab() *exp.Lab {
	l := exp.NewLab()
	l.Scale = benchScale
	l.Sched.Workers = 1
	return l
}

// avgNorm reports the mean normalized execution time of a variant
// (relative to the normal binary) across all nine benchmarks, as a
// benchmark metric.
func avgNorm(b *testing.B, lab *exp.Lab, v compiler.Variant, m *config.Machine, metric string) {
	b.Helper()
	sum, n := 0.0, 0
	for _, name := range exp.BenchNames() {
		r, err := lab.Norm(name, workload.InputA, v, m, m)
		if err != nil {
			b.Fatal(err)
		}
		sum += r
		n++
	}
	b.ReportMetric(sum/float64(n), metric)
}

func BenchmarkFig1(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }

func BenchmarkObsStalls(b *testing.B) { runExperiment(b, "obs-stalls") }

// BenchmarkCampaignWarm measures a fully-warm campaign: every result
// is served from a persistent store populated before the timer starts,
// and each iteration uses a fresh Lab (empty in-process memo) — so the
// number is store-read + render cost, the latency a re-run of a cached
// experiment actually pays. The bench/ warm-campaign workload times
// the same path end to end.
func BenchmarkCampaignWarm(b *testing.B) {
	e, ok := exp.ByID("fig10")
	if !ok {
		b.Fatal("unknown experiment fig10")
	}
	st, err := lab.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	warm := benchLab()
	warm.Sched.Store = st
	if err := exp.Run(e, warm, io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := benchLab()
		l.Sched.Store = st
		if err := exp.Run(e, l, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline reports the paper's headline comparison as metrics:
// the average normalized execution time of the wish jump/join/loop
// binary versus the predicated baselines (the paper reports 0.858 vs
// normal and a 13.3% edge over the best predicated binary).
func BenchmarkHeadline(b *testing.B) {
	m := config.DefaultMachine()
	for i := 0; i < b.N; i++ {
		lab := benchLab()
		avgNorm(b, lab, compiler.BaseDef, m, "base-def")
		avgNorm(b, lab, compiler.BaseMax, m, "base-max")
		avgNorm(b, lab, compiler.WishJumpJoin, m, "wish-jj")
		avgNorm(b, lab, compiler.WishJumpJoinLoop, m, "wish-jjl")
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationJRSThreshold sweeps the confidence threshold: too
// low sends hard branches into high-confidence mode (flushes); too high
// wastes predictable branches on predication overhead.
func BenchmarkAblationJRSThreshold(b *testing.B) {
	for _, thr := range []int{2, 8, 14} {
		b.Run(map[int]string{2: "thr2", 8: "thr8", 14: "thr14"}[thr], func(b *testing.B) {
			m := config.DefaultMachine()
			m.JRS.Threshold = thr
			for i := 0; i < b.N; i++ {
				lab := benchLab()
				avgNorm(b, lab, compiler.WishJumpJoinLoop, m, "wish-jjl")
			}
		})
	}
}

// BenchmarkAblationPredMech compares the two predication-support
// mechanisms (§2.1 vs §5.3.3) on the predicated binary.
func BenchmarkAblationPredMech(b *testing.B) {
	for _, sel := range []bool{false, true} {
		name := "c-style"
		if sel {
			name = "select-uop"
		}
		b.Run(name, func(b *testing.B) {
			m := config.DefaultMachine()
			if sel {
				m = m.WithSelectUop()
			}
			for i := 0; i < b.N; i++ {
				lab := benchLab()
				avgNorm(b, lab, compiler.BaseMax, m, "base-max")
			}
		})
	}
}

// BenchmarkAblationLoopPredictor measures the optional biased
// trip-count loop predictor the paper suggests in §3.2.
func BenchmarkAblationLoopPredictor(b *testing.B) {
	for _, bias := range []int{-1, 0, 2} {
		name := map[int]string{-1: "off", 0: "bias0", 2: "bias2"}[bias]
		b.Run(name, func(b *testing.B) {
			m := config.DefaultMachine()
			if bias >= 0 {
				m.UseLoopPredictor = true
				m.LoopPredictorBias = bias
			}
			for i := 0; i < b.N; i++ {
				lab := benchLab()
				avgNorm(b, lab, compiler.WishJumpJoinLoop, m, "wish-jjl")
			}
		})
	}
}

// --- Substrate microbenchmarks ---

func BenchmarkEmulatorSteps(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	src, mem := bench.Build(workload.InputA, workload.DefaultScale)
	p := compiler.MustCompile(src, compiler.NormalBranch)
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		st := emu.New(p)
		mem(st.Mem)
		n, err := st.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "µops/run")
}

func BenchmarkPipelineCycles(b *testing.B) {
	bench, _ := workload.ByName("parser")
	src, mem := bench.Build(workload.InputA, workload.DefaultScale)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cpu.New(config.DefaultMachine(), p, mem)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.UPC(), "µPC")
	}
}

// BenchmarkSimulatorThroughput reports the simulator's host-side speed
// (retired µops per wall-clock second, timed around cpu.Run — results
// themselves carry no host measurements) with and without an
// event-trace ring attached: the observability layer's hot-path
// budget. The untraced run pays only nil-ring checks and the per-cycle
// bucket increment; "traced" shows the cost of recording every
// fetch/rename/retire/flush event into a 4096-entry ring. Allocations
// are reported: steady-state simulation must not allocate (the arena +
// flat-table invariant TestSteadyStateZeroAlloc gates), so allocs/op
// stays flat at the per-run setup cost regardless of simulated length.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	src, mem := bench.Build(workload.InputA, workload.DefaultScale)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var ups float64
			for i := 0; i < b.N; i++ {
				c, err := cpu.New(config.DefaultMachine(), p, mem)
				if err != nil {
					b.Fatal(err)
				}
				if traced {
					c.AttachTrace(obs.NewRing(4096))
				}
				t0 := time.Now()
				res, err := c.Run(0)
				elapsed := time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				if elapsed > 0 {
					ups = float64(res.RetiredUops) / elapsed.Seconds()
				}
			}
			b.ReportMetric(ups, "µops/s")
		})
	}
}

func BenchmarkHybridPredictor(b *testing.B) {
	h := bpred.NewHybrid(bpred.DefaultHybridConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i%97) * 4
		p := h.Lookup(pc)
		h.Commit(pc, p, i%3 != 0)
	}
}

func BenchmarkCacheHierarchy(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessD(uint64(i%100000)*64, uint64(i), i%7 == 0)
	}
}

func BenchmarkCompile(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	src, _ := bench.Build(workload.InputA, workload.DefaultScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(src, compiler.WishJumpJoinLoop); err != nil {
			b.Fatal(err)
		}
	}
}
