// Command perfbench is the repository's benchmark: it drives the
// simulator's public entry points under four workloads, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload gc-stress --seed 7 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// defaultSeed is the seed the recorded-value gates were recorded on.
const defaultSeed = core.DefaultSeed

// buildDir, relative to the repository root, holds the benchmark's build
// and everything a run leaves behind (spans, worker reports).
const buildDir = ".bench_build"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadDef names one workload and the function that runs it.
type workloadDef struct {
	name string
	// minOps is the workload's designed minimum number of timed
	// operations in a run; it fixes the percentile reported as
	// op_tail_ms (see tailPercentile).
	minOps int
	run    func(b *bench) error
}

var workloads = []workloadDef{
	{"paper-eval", 80, runPaperEval},
	{"gc-stress", 200, runGCStress},
	{"whatif-serve", 2000, runWhatif},
	{"fleet-sweep", 40, runFleetSweep},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: paper-eval, gc-stress, whatif-serve or fleet-sweep")
		seed    = fs.Int64("seed", core.DefaultSeed, "workload seed; the recorded-value gates apply to the default seed only")
		seconds = fs.Int("seconds", 25, "length of the timed phase in seconds")
		trace   = fs.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
		out     = fs.String("out", "", "append the result, with host identity, as one JSON line to this file")
		compare = fs.Bool("compare", false, "compare two result files (OLD NEW); refuses results from different hosts")
		worker  = fs.Bool("fleet-worker", false, "internal: serve the fleet worker protocol on stdin/stdout")
		report  = fs.String("worker-report", "", "internal: profile the fleet worker and write its report here")
		inner   = fs.Bool("worker-inner", false, "internal: the profiled fleet worker's protocol process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *worker {
		if err := serveFleetWorker(*seed, *report, *inner); err != nil {
			fmt.Fprintln(stderr, "perfbench worker:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two result files: OLD NEW")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b := newBench(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err := wl.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", wl.name, err)
		return 1
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", wl.name, err)
		return 1
	}
	if b.traced {
		if err := b.spans.write(buildDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed)); err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", wl.name, err)
			return 1
		}
	}
	h := hostIdentity()
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion)
	for _, line := range b.info {
		fmt.Fprintln(stdout, line)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: h, Result: res}); err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", wl.name, err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", wl.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// host identifies the machine a result was measured on. Results from
// different hosts are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostIdentity() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one line of an --out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Result == nil {
			return nil, fmt.Errorf("%s line %d: not a perfbench record", path, i+1)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

var errCrossHost = errors.New("results come from different hosts; refusing to compare")

// compareFiles prints, per workload and metric, the median of OLD's runs,
// the median of NEW's runs and the relative change. Every record of both
// files must come from one host.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	return compareRecords(w, oldRecs, newRecs)
}

func compareRecords(w io.Writer, oldRecs, newRecs []record) error {
	all := append(append([]record{}, oldRecs...), newRecs...)
	for _, r := range all[1:] {
		if r.Host != all[0].Host {
			return fmt.Errorf("%w: %+v vs %+v", errCrossHost, all[0].Host, r.Host)
		}
	}
	type key struct{ workload, metric string }
	values := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	ov, nv := values(oldRecs), values(newRecs)
	var keys []key
	for k := range ov {
		if _, ok := nv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-28s %12s %12s %8s\n", "workload", "metric", "old", "new", "delta")
	for _, k := range keys {
		o, n := median(ov[k]), median(nv[k])
		delta := "n/a"
		if o != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
		}
		fmt.Fprintf(w, "%-14s %-28s %12.4g %12.4g %8s\n", k.workload, k.metric, o, n, delta)
	}
	return nil
}
