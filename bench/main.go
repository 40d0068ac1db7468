// Command bench is the repository's layered performance benchmark: four
// workloads that exercise the simulator the way its users do (a cold
// campaign, a warm re-render from the store, a campaign sent to a
// server, and the bare cycle loop), each measured end to end, plus a
// traced mode that splits each iteration's time by module. See
// README.md in this directory.
//
// Usage:
//
//	go run ./bench -workload cold-campaign -seed 1 -seconds 15 -trace 0
//	go run ./bench -workload all -seed 1 -out A.json
//	go run ./bench -workload all -seed 1 -trace 1 -out T.json
//	go run ./bench -compare A.json B.json
//
// The last line of standard output is the run's result as one JSON
// object; everything human-readable goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = fl.Int64("seed", 1, "seed for submission order, case order and client jitter; results never depend on it")
		seconds = fl.Float64("seconds", defaultSeconds, "how long each workload measures")
		trace   = fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		out     = fl.String("out", "", "append the run's record to this JSON file (traced runs also write <out>.<workload>.trace.json)")
		cmp     = fl.Bool("compare", false, "compare two -out files given as arguments: -compare A.json B.json")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return compareMain(fl.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *out, stdout, stderr)
	}
	cfg := defaultConfig(*seed, *seconds, *trace == 1)
	rec, err := runWorkload(*name, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	report(stderr, rec)
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if cfg.trace {
			path := fmt.Sprintf("%s.%s.trace.json", *out, rec.Workload)
			if err := writeSpans(path, rec.Workload, rec.spans, 5); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	if err := printResult(stdout, rec, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so peak RSS and the
// process-wide artifact cache belong to one workload.
func runAll(seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, wl := range workloadNames {
		args := []string{"-workload", wl, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl, err)
			code = 1
		}
	}
	return code
}

// printResult writes the one-line JSON result.
func printResult(w io.Writer, rec *runRecord, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range metricsFor(traced) {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", rec.Workload, d.Name)
		}
		metrics[d.Name] = value{v.Value, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// report prints the run for a human.
func report(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "bench: %s seed=%d iterations=%d correct=%v (%d checks, %d failed)\n",
		rec.Workload, rec.Seed, rec.Iterations, rec.Correct, rec.Attempted, rec.Failed)
	fmt.Fprintf(w, "  host: %d CPUs, GOMAXPROCS=%d, %s %s/%s, temp fs %s\n", rec.Host.NumCPU,
		rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.GOOS, rec.Host.GOARCH, rec.Host.TempFS)
	for _, d := range metricsFor(rec.Trace) {
		if v, ok := rec.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-24s %16.6g %s\n", d.Name, v.Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "  uncalibrated: setup_s=%.6g iter_p50_ms=%.6g cpu_ms_per_iter=%.6g; calibration kernel %.4g ms (reference %g ms)\n",
		rec.Raw["setup_s"], rec.Raw["iter_p50_ms"], rec.Raw["cpu_ms_per_iter"], rec.Raw["kernel_ms"], calRefMs)
	var names []string
	for k := range rec.Latency {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		l := rec.Latency[k]
		line := fmt.Sprintf("  uncalibrated latency %-10s n=%-8d p50=%.4g ms", k, l.N, l.P50)
		if l.TailP > 0 {
			line += fmt.Sprintf("  p%g=%.4g ms", l.TailP, l.Tail)
		} else {
			line += fmt.Sprintf("  (no tail percentile: fewer than %d samples beyond p75)", minBeyond)
		}
		fmt.Fprintln(w, line)
	}
	for k, v := range rec.Digests {
		fmt.Fprintf(w, "  digest %s = %s\n", k, v)
	}
	if rec.Trace {
		printLayers(w, rec.analyses)
		if ov, ok := rec.Metrics["trace.overhead"]; ok {
			fmt.Fprintf(w, "  tracing overhead: %+.1f%% (median of traced iteration / preceding untraced one - 1)\n", 100*ov.Value)
		}
	}
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two -out files: -compare A.json B.json")
		return 2
	}
	a, err := readOut(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := readOut(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !compareFiles(a, b, stdout) {
		return 1
	}
	return 0
}
