package main

import (
	"math"
	"sort"

	"repro/internal/experiments"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names and units (a test keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndMetrics are what a user of the simulator sees. Every workload
// reports every one of them; an "operation" is the workload's unit of
// work (see README.md).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// profiledModules are the internal packages whose share of host CPU the
// traced run reports as <module>.self_frac and <module>.charged_frac (see
// moduleProfile); "http" is net/http and "other" everything else
// (runtime, math/rand, the benchmark itself), so each set sums to 1.
var profiledModules = []string{
	"simkit", "cfs", "jmutex", "taskq", "pscavenge", "heap", "objgraph",
	"jvm", "workload", "affinity", "ostopo", "stats", "evtrace",
	"postmortem", "check", "gclog", "runner", "experiments", "core",
	"service", "fleet", "http", "other",
}

// layerCounters are the per-layer metrics measured at the benchmark's
// calls into the layers, in addition to the self fractions.
var layerCounters = []metricDef{
	{"simkit.events", "count", "lower"},
	{"simkit.inlined_frac", "frac", "higher"},
	{"simkit.host_ns_per_event", "ns", "lower"},
	{"cfs.body_resumes", "count", "lower"},
	{"cfs.plan_elisions", "count", "higher"},
	{"cfs.burst_elisions", "count", "higher"},
	{"cfs.elision_frac", "frac", "higher"},
	{"cfs.context_switches", "count", "lower"},
	{"jmutex.fast_acquires", "count", "higher"},
	{"jmutex.slow_acquires", "count", "lower"},
	{"jmutex.park_events", "count", "lower"},
	{"taskq.steal_attempts", "count", "lower"},
	{"taskq.steal_fail_frac", "frac", "lower"},
	{"pscavenge.collections", "count", "lower"},
	{"pscavenge.sim_gc_ms", "ms", "lower"},
	{"heap.alloc_objects", "count", "lower"},
	{"heap.promoted_objects", "count", "lower"},
	{"heap.ref_compactions", "count", "lower"},
	{"jvm.items_done", "count", "higher"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runner.tasks", "count", "higher"},
	{"runner.busy_frac", "frac", "higher"},
	{"core.digest_us", "us", "lower"},
	{"service.hit_frac", "frac", "higher"},
	{"service.coalesced", "count", "higher"},
	{"service.runs", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.timeouts", "count", "lower"},
	{"service.worker_busy_frac", "frac", "higher"},
	{"service.hit_p50_ms", "ms", "lower"},
	{"service.cold_p50_ms", "ms", "lower"},
	{"client.hit_p50_ms", "ms", "lower"},
	{"client.cold_p50_ms", "ms", "lower"},
	{"client.sweep_p50_ms", "ms", "lower"},
	{"client.run_p99_ms", "ms", "lower"},
	{"http.overhead_p50_ms", "ms", "lower"},
	{"http.cold_overhead_p50_ms", "ms", "lower"},
	{"check.events", "count", "lower"},
	{"check.violations", "count", "lower"},
	{"check.drops", "count", "lower"},
	{"fleet.steals", "count", "higher"},
	{"fleet.redispatches", "count", "lower"},
	{"fleet.worker_deaths", "count", "lower"},
	{"fleet.worker_busy_frac", "frac", "higher"},
	{"fleet.sys_cpu_frac", "frac", "lower"},
	{"fleet.coordinator_cpu_s", "s", "lower"},
	{"fleet.worker_peak_rss_mb", "MiB", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.spans", "count", "higher"},
}

// perLayerMetrics lists every metric a traced run reports.
func perLayerMetrics() []metricDef {
	out := append([]metricDef{}, layerCounters...)
	for _, m := range profiledModules {
		out = append(out, metricDef{m + ".self_frac", "frac", "lower"})
	}
	for _, m := range profiledModules {
		out = append(out, metricDef{m + ".charged_frac", "frac", "lower"})
	}
	for _, e := range experiments.All() {
		out = append(out, metricDef{"experiments." + e.ID + ".host_s", "s", "lower"})
	}
	return out
}

// nearestRank is the 1-based nearest-rank index of percentile p among n
// samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error (0.999*10000 = 9990.000000000002)
	// from bumping an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// (0 when there are none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile that leaves at least
// ten of n samples beyond it, or 50 when n is too small for any.
// Workloads fix n at their designed minimum sample count, so every run of
// a workload reports the same percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the midpoint median (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
