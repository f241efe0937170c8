package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric the benchmark prints: its name and unit, as
// listed in BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run (--trace 0), printed on
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"execs_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"verdict_p50_ms", "ms"},
	{"verdict_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run (--trace 1), printed on
// every workload. Each explore workload also drives its jobs through the
// service once, and service-mix also replays its explored jobs through
// core.Explore, so every layer is measured on every workload.
var perLayer = []metricDef{
	{"core.states_per_exec", "ratio"},
	{"core.checks_per_exec", "ratio"},
	{"core.memo_hits", "count"},
	{"core.revisits_tried", "count"},
	{"core.revisit_success_ratio", "ratio"},
	{"core.repair_fail", "count"},
	{"core.allocs_per_exec", "count"},
	{"core.bytes_per_exec", "B"},
	{"core.self_s", "s"},
	{"core.revisit_share", "ratio"},
	{"core.parallel_speedup", "ratio"},
	{"memmodel.calls", "count"},
	{"memmodel.check_ns", "ns"},
	{"memmodel.accept_ratio", "ratio"},
	{"memmodel.share", "ratio"},
	{"memmodel.sampled_share", "ratio"},
	{"interp.share", "ratio"},
	{"interp.next_ns", "ns"},
	{"interp.repair_ns", "ns"},
	{"eg.clone_ns", "ns"},
	{"eg.key_ns", "ns"},
	{"eg.view_ns", "ns"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_ms_p99", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p99", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p99", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"backend.dfs.elapsed_ms_p50", "ms"},
	{"backend.dfs.elapsed_ms_p99", "ms"},
	{"backend.axenum.elapsed_ms_p50", "ms"},
	{"backend.axenum.elapsed_ms_p99", "ms"},
	{"backend.operational.elapsed_ms_p50", "ms"},
	{"backend.operational.elapsed_ms_p99", "ms"},
	{"backend.dfs.wins", "count"},
	{"backend.axenum.wins", "count"},
	{"backend.operational.wins", "count"},
	{"backend.axenum.timeouts", "count"},
	{"backend.crosscheck_wait_ms_p99", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect checks that vals holds exactly the metrics of defs and attaches
// their units.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not listed", name)
			}
		}
	}
	return out, nil
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, or 0
// when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the 0.5 percentile, averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB
// (10^6 bytes): the most memory the run has held at once, as the
// operating system saw it.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
