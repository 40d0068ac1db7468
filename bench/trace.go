package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one call into a layer: its name is "<layer>.<operation>".
// The per-iteration root span is named rootSpan and belongs to no layer;
// its self time is the benchmark's own glue, which is what the coverage
// check bounds.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
}

const rootSpan = "iter"

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	iter  int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginIter opens iteration it's root span.
func (t *tracer) beginIter(it int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.iter = int32(it)
	t.mu.Unlock()
	return t.begin(rootSpan, -1)
}

// begin opens a span under parent (-1 for none) and returns its id. A
// span inherits its parent's iteration, so spans opened on other
// goroutines (server handlers) land in the iteration that caused them.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	it := t.iter
	if parent >= 0 && int(parent) < len(t.spans) {
		it = t.spans[parent].Iter
	} else {
		parent = -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Iter: it})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// withSpan carries a span id to code that only sees a context: the
// HTTP transport, which forwards it to the server's handler span. A
// negative id (tracing off) leaves ctx unchanged.
func withSpan(ctx context.Context, id int32) context.Context {
	if id < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) (int32, bool) {
	id, ok := ctx.Value(spanKey{}).(int32)
	return id, ok
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return ""
}

// iterSpans is the analysis of one traced iteration.
type iterSpans struct {
	dur, self map[string]float64 // seconds, by span name
	count     map[string]int     // spans, by span name
	// layerBusy sums, by layer, the spans not nested in a span of the
	// same layer; layerSelf sums self time by layer.
	layerBusy, layerSelf map[string]float64
	// busy is all span self time (worker-seconds: spans on concurrent
	// goroutines each count); covered is the part inside layer spans.
	busy, covered float64
	// warmIdle is workers × lab.warm wall time minus the time its direct
	// children (the per-spec worker spans) were running.
	warmIdle float64
}

// analyze computes self times and per-layer sums for one iteration's
// spans, whose Parent fields index into spans (see splitByIter). A
// span's self time is its duration minus the part of it its children
// cover; children on concurrent goroutines may overlap, so the covered
// part is the union of their intervals.
func analyze(spans []span, workers int) iterSpans {
	a := iterSpans{
		dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{},
		layerBusy: map[string]float64{}, layerSelf: map[string]float64{},
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		d := float64(s.End-s.Start) / 1e9
		var kids [][2]int64
		var kidDur float64
		for _, c := range children[i] {
			cs := spans[c]
			kids = append(kids, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			kidDur += float64(cs.End-cs.Start) / 1e9
		}
		self := d - float64(unionLen(kids))/1e9
		a.dur[s.Name] += d
		a.self[s.Name] += self
		a.count[s.Name]++
		a.busy += self
		layer := layerOf(s.Name)
		if layer == "" {
			continue
		}
		a.covered += self
		a.layerSelf[layer] += self
		if s.Parent < 0 || layerOf(spans[s.Parent].Name) != layer {
			a.layerBusy[layer] += d
		}
		if s.Name == "lab.warm" {
			a.warmIdle += float64(workers)*d - kidDur
		}
	}
	return a
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
			continue
		}
		curE = max(curE, x[1])
	}
	if open {
		total += curE - curS
	}
	return total
}

// splitByIter groups spans by iteration, renumbering ids so each group
// is self-contained (parents outside the group become -1).
func splitByIter(all []span) map[int32][]span {
	pos := make(map[int32]int32, len(all)) // absolute id → position in its group
	groups := map[int32][]span{}
	for i, s := range all {
		g := groups[s.Iter]
		pos[int32(i)] = int32(len(g))
		groups[s.Iter] = append(g, s)
	}
	for it, g := range groups {
		for j := range g {
			if p := g[j].Parent; p >= 0 && all[p].Iter == it {
				g[j].Parent = pos[p]
			} else {
				g[j].Parent = -1
			}
		}
	}
	return groups
}

// writeSpans writes the spans of the first maxIters traced iterations as
// JSON; the full set of a warm run is millions of spans.
func writeSpans(path, workload string, all []span, maxIters int) error {
	keep := map[int32]bool{}
	var out []span
	for _, s := range all {
		if !keep[s.Iter] && len(keep) >= maxIters {
			continue
		}
		keep[s.Iter] = true
		out = append(out, s)
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// printLayers writes the per-layer busy/self table, averaged over the
// traced iterations.
func printLayers(w io.Writer, iters []iterSpans) {
	if len(iters) == 0 {
		return
	}
	busy, self, count := map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, a := range iters {
		for l, v := range a.layerBusy {
			busy[l] += v
		}
		for l, v := range a.layerSelf {
			self[l] += v
		}
		for name, c := range a.count {
			if l := layerOf(name); l != "" {
				count[l] += c
			}
		}
	}
	var layers []string
	for l := range busy {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	n := float64(len(iters))
	fmt.Fprintf(w, "  %-10s %12s %12s %10s   (per traced iteration, %d iterations)\n", "layer", "busy_s", "self_s", "spans", len(iters))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.6f %12.6f %10.1f\n", l, busy[l]/n, self[l]/n, float64(count[l])/n)
	}
}
