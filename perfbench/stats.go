package main

import (
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a q share of samples at or below it. ok
// reports whether at least minBeyond samples lie beyond that rank, the
// rule for publishing a percentile at all.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the nearest-rank 50th percentile, reportable or not.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// metricUnit declares one reported metric.
type metricUnit struct{ name, unit string }

// endToEndMetrics and perLayerMetrics declare every metric a run reports
// with --trace 0 and --trace 1, with its unit, in report order.
// BENCHMARK.json lists the same names and units.
var endToEndMetrics = []metricUnit{
	{"setup_s", "s"}, {"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"}, {"ok_share", "ratio"}, {"cpu_ms_per_op", "ms"},
	{"rss_p50_mb", "MB"},
}

var perLayerMetrics = []metricUnit{
	{"serve.queue_ms_p50", "ms"}, {"serve.queue_ms_p99", "ms"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.coalesced_ratio", "ratio"},
	{"serve.shed_share", "ratio"}, {"serve.sweep_dedup_ratio", "ratio"},
	{"serve.sweep_work_ms", "ms"}, {"serve.sweep_span_ms", "ms"},
	{"serve.sweep_parallelism", "ratio"}, {"serve.sweep_parallelism_bound", "ratio"},
	{"loadgen.late_ms_p99", "ms"}, {"loadgen.achieved_rate_rps", "1/s"},
	{"simulate.replay_ms", "ms"}, {"network.replay_ns_per_vertex", "ns"},
	{"simulate.calibrate_ms", "ms"}, {"simulate.calibrations_per_run", "count"},
	{"simulate.kernel_hit_ratio", "ratio"}, {"simulate.kernel_evictions_per_run", "count"},
	{"simulate.block_ms", "ms"}, {"simulate.memo_subtree_hit_ratio", "ratio"},
	{"simulate.scheme_self_ms", "ms"}, {"simulate.plan_ms", "ms"},
	{"simulate.schedule_ms", "ms"}, {"simulate.phase_ms", "ms"}, {"sched.schedule_ms", "ms"},
	{"simulate.wall_ms.multi", "ms"}, {"simulate.wall_ms.multi-theta", "ms"},
	{"simulate.wall_ms.multi-faulty", "ms"}, {"simulate.wall_ms.blocked", "ms"},
	{"simulate.wall_ms.blocked-analytic", "ms"}, {"simulate.wall_ms.unidc", "ms"},
	{"simulate.alloc_mb_per_run", "MB"}, {"obs.spans_per_run", "count"},
	{"obs.trace_overhead_ratio", "ratio"}, {"simulate.layer_sum_ratio", "ratio"},
	{"simulate.validate_us_p50", "us"}, {"serve.overhead_ms_p50", "ms"},
	{"serve.resp_bytes_mean", "B"}, {"obs.runs_list_ms_p50", "ms"},
	{"serve.prom_render_ms_p50", "ms"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is the set of declared metrics one run reports, with a note
// per entry (its sample count or ratio base) for the human-readable
// report.
type metrics struct {
	decl  []metricUnit
	vals  map[string]metric
	notes map[string]string
}

func newMetrics(decl []metricUnit) *metrics {
	return &metrics{decl: decl, vals: map[string]metric{}, notes: map[string]string{}}
}

// set records name = v with note describing its base. Setting an
// undeclared metric is a bug in the benchmark.
func (m *metrics) set(name string, v float64, note string) {
	for _, d := range m.decl {
		if d.name == name {
			m.vals[name] = metric{Value: v, Unit: d.unit}
			m.notes[name] = note
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// missing lists the declared metrics not yet set.
func (m *metrics) missing() []string {
	var out []string
	for _, d := range m.decl {
		if _, ok := m.vals[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
