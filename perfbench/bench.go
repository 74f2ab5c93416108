package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a workload builds its system under test;
// setup_s is the median, and only the last build is used.
const setupReps = 9

// bench is one benchmark run: the set-up timings, the per-round
// statistics of the timed phase, and (in a traced run) the spans, the CPU
// profile aggregated by module and the per-layer counters.
type bench struct {
	wl      workloadDef
	seed    int64
	seconds time.Duration
	traced  bool
	log     io.Writer
	// workers is the load parallelism: pool workers, clients or fleet
	// worker processes. It is the host's CPU count.
	workers int

	setupTimes []float64
	modes      [2]modeStats // [0] untraced rounds, [1] traced rounds
	spans      *spanLog
	prof       moduleProfile
	// counts sums the counters workloads report, over traced rounds only.
	counts map[string]float64
	// layer holds the finished per-layer metrics a workload sets.
	layer map[string]float64

	attempted, failed int
	failures          []string
	// workerRSSKB is the peak RSS of each worker process the system
	// under test started (fleet workers), in KiB.
	workerRSSKB []float64
	info        []string
}

func newBench(wl workloadDef, seed int64, seconds time.Duration, traced bool, log io.Writer) *bench {
	b := &bench{
		wl: wl, seed: seed, seconds: seconds, traced: traced, log: log,
		workers: runtime.NumCPU(),
		counts:  map[string]float64{},
		layer:   map[string]float64{},
		prof:    newModuleProfile(),
	}
	if traced {
		b.spans = newSpanLog()
	}
	return b
}

// modeStats accumulates the rounds of one mode (untraced or traced).
type modeStats struct {
	rounds     int
	ops        float64
	lat        []float64 // per-operation latency, ms
	rates      []float64 // per-round operations per second
	allocBytes float64
	gcCPU      float64
	usedCPU    float64
}

// round is one unit of the timed phase: a pass over a workload's cell
// set, one sweep, or one window of closed-loop traffic. Its methods are
// safe for concurrent use by the round's goroutines.
type round struct {
	traced bool
	spans  *spanLog // nil in an untraced round

	mu        sync.Mutex
	ops       float64
	lat       []float64
	attempted int
	failed    int
	failures  []string
	counts    map[string]float64
}

// done records n completed operations.
func (r *round) done(n float64) {
	r.mu.Lock()
	r.ops += n
	r.mu.Unlock()
}

// latency records one operation's latency.
func (r *round) latency(d time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

// gate records one correctness-gated operation; a non-nil err fails it.
func (r *round) gate(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
	r.mu.Unlock()
}

// count adds v to a per-layer counter. Only traced rounds keep counters.
func (r *round) count(name string, v float64) {
	if !r.traced {
		return
	}
	r.mu.Lock()
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] += v
	r.mu.Unlock()
}

// setup builds the system under test setupReps times, timing each build,
// closes all but the last and returns the last build's closer.
func (b *bench) setup(build func() (func(), error)) (func(), error) {
	var last func()
	for i := 0; i < setupReps; i++ {
		if last != nil {
			last()
		}
		t0 := time.Now()
		c, err := build()
		b.setupTimes = append(b.setupTimes, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		last = c
		if last == nil {
			last = func() {}
		}
	}
	return last, nil
}

// rounds runs fn once per round until the timed phase is spent. A new
// round starts only while the median round so far still fits before the
// deadline, so a run lasts about --seconds. In a traced run every odd
// round is traced — spans recorded and a CPU profile taken — so traced
// and untraced rounds interleave over the same warm state and their rate
// difference is the tracing overhead. A traced run does at least two
// rounds.
func (b *bench) rounds(fn func(r *round) error) error {
	deadline := time.Now().Add(b.seconds)
	var durs []float64
	for i := 0; ; i++ {
		if i > 0 && !(b.traced && i < 2) {
			next := time.Duration(median(durs) * float64(time.Second))
			if time.Now().Add(next).After(deadline) {
				return nil
			}
		}
		r := &round{traced: b.traced && i%2 == 1}
		var prof bytes.Buffer
		if r.traced {
			r.spans = b.spans
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		before := readRuntime()
		t0 := time.Now()
		err := fn(r)
		d := time.Since(t0)
		after := readRuntime()
		if r.traced {
			pprof.StopCPUProfile()
			if perr := b.prof.addProfile(prof.Bytes()); perr != nil && err == nil {
				err = perr
			}
		}
		b.finishRound(r, d, before, after)
		durs = append(durs, d.Seconds())
		if err != nil {
			return err
		}
	}
}

func (b *bench) finishRound(r *round, d time.Duration, before, after runtimeSample) {
	m := &b.modes[0]
	if r.traced {
		m = &b.modes[1]
		for k, v := range r.counts {
			b.counts[k] += v
		}
	}
	m.rounds++
	m.ops += r.ops
	m.lat = append(m.lat, r.lat...)
	if d > 0 {
		m.rates = append(m.rates, r.ops/d.Seconds())
	}
	m.allocBytes += after.allocBytes - before.allocBytes
	m.gcCPU += after.gcCPU - before.gcCPU
	m.usedCPU += after.usedCPU - before.usedCPU
	b.attempted += r.attempted
	b.failed += r.failed
	for _, f := range r.failures {
		if len(b.failures) < 5 {
			b.failures = append(b.failures, f)
		}
	}
}

// note adds a human-readable line printed before the result.
func (b *bench) note(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
}

type runtimeSample struct {
	allocBytes, gcCPU, usedCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	// Total CPU is GOMAXPROCS × wall time; subtracting idle time leaves
	// the CPU the process used.
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), usedCPU: val(2) - val(3)}
}

func selfMaxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// selfCPU returns the process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result assembles the run's metrics: the end-to-end set from the
// untraced rounds, or in a traced run the per-layer set.
func (b *bench) result() (*result, error) {
	if b.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, f := range b.failures {
		b.note("FAILED: %s", f)
	}
	e2e := b.endToEnd()
	b.noteSorted("e2e", e2e)
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	defs, vals := endToEndMetrics, e2e
	if b.traced {
		defs, vals = perLayerMetrics(), b.perLayer()
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	if len(res.Metrics) != len(vals) {
		for n := range vals {
			if _, ok := res.Metrics[n]; !ok {
				return nil, fmt.Errorf("metric %q is not declared", n)
			}
		}
	}
	return res, nil
}

// noteSorted notes each entry of m, sorted by name.
func (b *bench) noteSorted(prefix string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.note("%s %-32s %.6g", prefix, n, m[n])
	}
}

// endToEnd computes the end-to-end metrics from the untraced rounds.
func (b *bench) endToEnd() map[string]float64 {
	m := b.modes[0]
	lat := sortedCopy(m.lat)
	tail := tailPercentile(b.wl.minOps)
	beyond := len(lat) - nearestRank(tail, len(lat))
	b.note("samples: %d operations over %d untraced rounds; op_tail_ms is p%g (%d beyond)",
		len(lat), m.rounds, tail, beyond)
	if beyond < 10 && !b.traced {
		// The run fell short of the workload's designed minimum sample
		// count: op_tail_ms rests on fewer than ten samples.
		fmt.Fprintf(b.log, "perfbench %s: WARNING: %d samples, %d beyond p%g; the workload is designed for at least %d (10 beyond)\n",
			b.wl.name, len(lat), beyond, tail, b.wl.minOps)
		b.note("WARNING: only %d samples beyond p%g (designed minimum %d operations)", beyond, tail, b.wl.minOps)
	}
	rates := sortedCopy(m.rates)
	b.note("round rates (ops/s): min %.4g p25 %.4g median %.4g p75 %.4g max %.4g",
		percentile(rates, 0), percentile(rates, 25), median(rates), percentile(rates, 75), percentile(rates, 100))
	// The peak RSS of the process doing the work: this one, or the
	// median worker when the work runs in worker processes.
	rss := float64(selfMaxRSSKB())
	if len(b.workerRSSKB) > 0 {
		rss = median(b.workerRSSKB)
	}
	out := map[string]float64{
		"setup_s":     median(b.setupTimes),
		"ops_per_s":   median(m.rates),
		"op_p50_ms":   percentile(lat, 50),
		"op_tail_ms":  percentile(lat, tail),
		"peak_rss_mb": rss / 1024,
	}
	if m.ops > 0 {
		out["alloc_kb_per_op"] = m.allocBytes / m.ops / 1024
	}
	return out
}

// perLayer merges the workload's per-layer metrics with the ones the
// harness measures itself: module CPU fractions, Go GC CPU share,
// tracing overhead and span count.
func (b *bench) perLayer() map[string]float64 {
	out := map[string]float64{}
	for k, v := range b.layer {
		out[k] = v
	}
	for k, v := range fractions(b.prof.self) {
		out[k+".self_frac"] = v
	}
	for k, v := range fractions(b.prof.charged) {
		out[k+".charged_frac"] = v
	}
	t := b.modes[1]
	if t.usedCPU > 0 {
		out["runtime.gc_cpu_frac"] = t.gcCPU / t.usedCPU
	}
	if u := median(b.modes[0].rates); u > 0 {
		out["trace.overhead_frac"] = 1 - median(t.rates)/u
	}
	out["trace.spans"] = float64(b.spans.len())
	for _, s := range b.spans.summary() {
		b.note("span %-24s n=%-6d total=%.3fs self=%.3fs", s.Name, s.Count, s.Total.Seconds(), s.Self.Seconds())
	}
	b.noteSorted("layer", out)
	return out
}
