package main

import "regexp"

// metricDef describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// nameRE is what every workload and metric name must match.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// endToEnd are the metrics a user of each workload sees, measured with
// tracing off. Every workload reports all of them: per-request
// percentiles exist only on remote-campaign, so they are per-layer
// (api.*) rather than end-to-end. The time bounds are the widest
// allowed: calibrated, the run-to-run quartile spread of these times
// still reaches 8% on a shared 2-vCPU machine, and a bound should be
// three times the spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"iter_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_iter", "ms", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the traced run's metrics, one group per module, each the
// median over traced iterations of a per-iteration value. A layer a
// workload does not touch reads 0. Times marked "replayed" in README.md
// are re-measured outside the timed iteration because the call that
// does the work is internal to another package.
var perLayer = []metricDef{
	{"cpu.run_s", "s", "lower", 0},
	{"cpu.new_s", "s", "lower", 0},
	{"cpu.ns_per_uop", "ns", "lower", 0},
	{"cpu.retired_uops", "count", "higher", 0},
	{"cpu.cycles", "count", "lower", 0},
	{"cpu.retired_per_fetched", "ratio", "higher", 0},
	{"cpu.steady_allocs", "count", "lower", 0},

	{"artifact.get_s", "s", "lower", 0},
	{"artifact.builds", "count", "lower", 0},
	{"artifact.hit_ratio", "ratio", "higher", 0},
	{"workload.build_s", "s", "lower", 0},
	{"compiler.compile_s", "s", "lower", 0},

	{"lab.warm_s", "s", "lower", 0},
	{"lab.key_s", "s", "lower", 0},
	{"lab.worker_idle_s", "s", "lower", 0},
	{"lab.fresh", "count", "lower", 0},
	{"lab.disk_hits", "count", "higher", 0},
	{"lab.mem_hits", "count", "higher", 0},
	{"lab.hit_ratio", "ratio", "higher", 0},

	{"store.put_s", "s", "lower", 0},
	{"store.puts", "count", "lower", 0},
	{"store.get_s", "s", "lower", 0},
	{"store.gets", "count", "lower", 0},
	{"store.hit_ratio", "ratio", "higher", 0},
	{"store.bytes", "bytes", "lower", 0},

	{"journal.append_s", "s", "lower", 0},
	{"journal.appends", "count", "lower", 0},
	{"journal.bytes", "bytes", "lower", 0},

	{"codec.encode_s", "s", "lower", 0},
	{"codec.decode_s", "s", "lower", 0},
	{"codec.frame_bytes", "bytes", "lower", 0},

	{"exp.runs_s", "s", "lower", 0},
	{"exp.render_s", "s", "lower", 0},

	{"serve.handler_s", "s", "lower", 0},
	{"serve.requests", "count", "lower", 0},
	{"serve.rejected", "count", "lower", 0},

	{"api.run_s", "s", "lower", 0},
	{"api.transport_s", "s", "lower", 0},
	{"api.campaign_stream_s", "s", "lower", 0},
	{"api.campaign_json_s", "s", "lower", 0},
	{"api.stream_bytes", "bytes", "lower", 0},
	{"api.json_bytes", "bytes", "lower", 0},
	{"api.retries", "count", "lower", 0},
	{"api.run_p50_ms", "ms", "lower", 0},
	{"api.run_p99_ms", "ms", "lower", 0},
	{"api.run_samples", "count", "higher", 0},
	{"api.batch_p50_ms", "ms", "lower", 0},
	{"api.batch_samples", "count", "higher", 0},

	{"trace.overhead", "ratio", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.iterations", "count", "higher", 0},
}

// metricsFor returns the metric set a run reports.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// isPerLayer reports whether name is a per-layer metric.
func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}
