package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"
)

// outFile is the -out file: every run appended to it.
type outFile struct {
	Runs []runRecord `json:"runs"`
}

func readOut(path string) (outFile, error) {
	var f outFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendRun adds rec to the -out file at path, creating it if needed.
func appendRun(path string, rec *runRecord) error {
	f, err := readOut(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, *rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// values are the numbers a file holds for one workload's metric: one
// per run when it has several runs, else the single run's own samples.
// End-to-end metrics come from untraced runs only and per-layer metrics
// from traced runs only.
func (f outFile) values(workload string, d metricDef) []float64 {
	traced := isPerLayer(d.Name)
	var runs []metricValue
	for _, r := range f.Runs {
		if v, ok := r.Metrics[d.Name]; ok && r.Workload == workload && r.Trace == traced {
			runs = append(runs, v)
		}
	}
	switch {
	case len(runs) == 0:
		return nil
	case len(runs) == 1 && len(runs[0].Samples) > 0:
		return runs[0].Samples
	}
	var xs []float64
	for _, v := range runs {
		xs = append(xs, v.Value)
	}
	return xs
}

// comparison is one workload × metric row of -compare.
type comparison struct {
	workload, metric string
	medA, medB       float64
	delta            float64 // (B - A) / A
	spread           float64 // the wider of the two sides' quartile spreads
	bound            float64 // 0 for per-layer metrics
	status           string
}

// compareMetric judges one metric: a change worse than the bound is a
// regression, unless the spread between runs is itself wider than the
// bound, which leaves it unresolved.
func compareMetric(d metricDef, a, b []float64) comparison {
	c := comparison{metric: d.Name, medA: median(a), medB: median(b), bound: d.Bound}
	c.spread = math.Max(spread(a), spread(b))
	switch {
	case c.medA != 0:
		c.delta = (c.medB - c.medA) / math.Abs(c.medA)
	case c.medB != 0:
		c.delta = math.Inf(1)
	}
	worse := c.delta
	if d.Better == "higher" {
		worse = -c.delta
	}
	switch {
	case d.Bound == 0:
		c.status = "-"
	case c.spread > d.Bound:
		c.status = "unresolved"
	case worse > d.Bound:
		c.status = "REGRESSED"
	default:
		c.status = "ok"
	}
	return c
}

// compareFiles prints every workload × metric both files hold, and
// every workload whose correctness digests differ between runs. It
// reports whether nothing regressed, nothing was unresolved and every
// digest agreed.
func compareFiles(a, b outFile, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %9s %8s %6s  %s\n",
		"workload", "metric", "median_A", "median_B", "delta", "spread", "bound", "status")
	for _, wl := range workloadNames {
		for _, set := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range set {
				va, vb := a.values(wl, d), b.values(wl, d)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				c := compareMetric(d, va, vb)
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				}
				fmt.Fprintf(w, "%-16s %-24s %14.6g %14.6g %+8.1f%% %7.1f%% %6s  %s\n",
					wl, d.Name, c.medA, c.medB, 100*c.delta, 100*c.spread, bound, c.status)
				if c.status == "REGRESSED" || c.status == "unresolved" {
					ok = false
				}
			}
		}
		if msg := digestMismatch(wl, a, b); msg != "" {
			fmt.Fprintln(w, msg)
			ok = false
		}
	}
	return ok
}

// digestMismatch describes the correctness digests of a workload that
// differ between any two runs of either file, or returns "".
func digestMismatch(workload string, files ...outFile) string {
	seen := map[string]map[string]bool{}
	for _, f := range files {
		for _, r := range f.Runs {
			if r.Workload != workload {
				continue
			}
			for k, v := range r.Digests {
				if seen[k] == nil {
					seen[k] = map[string]bool{}
				}
				seen[k][v] = true
			}
		}
	}
	var bad []string
	for k, vs := range seen {
		if len(vs) > 1 {
			bad = append(bad, fmt.Sprintf("%s has %d distinct values", k, len(vs)))
		}
	}
	if len(bad) == 0 {
		return ""
	}
	sort.Strings(bad)
	return fmt.Sprintf("%-16s DIGEST MISMATCH: %s", workload, strings.Join(bad, "; "))
}
