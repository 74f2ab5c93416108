package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/fleet"
)

// fleetCells is the size of one sweep: about a third of a second of
// checked and replayed cells on two worker processes, so a 25-second run
// completes the fleet-sweep workload's designed minimum of 40 sweeps.
const fleetCells = 32

// fleetPrimeCells is the sweep each set-up runs to start the workers once.
const fleetPrimeCells = 2

// fleetDigest is the sweep_digest of the fleetCells-cell sweep on the
// default seed.
const fleetDigest = "31d03fe0bf91bef7624e40cee28f96af2379d61a8cea50fd3861a32a81b9b856"

// workerReportWait bounds how long a traced sweep waits for its profiled
// workers to write their reports after the coordinator has let them go.
const workerReportWait = 20 * time.Second

// workerReport is what a profiled fleet worker leaves behind: its own
// resource usage and CPU profile.
type workerReport struct {
	PID      int    `json:"pid"`
	UserNS   int64  `json:"user_ns"`
	SysNS    int64  `json:"sys_ns"`
	MaxRSSKB int64  `json:"maxrss_kb"`
	Profile  []byte `json:"profile"`
}

// serveFleetWorker is the worker side: the benchmark binary re-executed
// with --fleet-worker. Unprofiled, it serves the protocol directly.
//
// The coordinator SIGKILLs its workers when a sweep completes, which
// would lose a CPU profile still in memory. So a profiled worker (report
// path set) runs the protocol in a child process that shares its stdin
// and stdout: when the coordinator closes stdin and kills the parent, the
// child sees end of input, writes its report to the path and exits. The
// coordinator may close the child's stdout while it still answers a
// ping, so the child ignores SIGPIPE and treats that write error as the
// end of the sweep.
func serveFleetWorker(seed int64, report string, inner bool) error {
	serve := func() error {
		return fleet.ServeWorker(os.Stdin, os.Stdout, fleet.CheckRunner(seed, check.RunOptions{}), fleet.WorkerOptions{})
	}
	if report == "" {
		return serve()
	}
	if !inner {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		cmd := exec.Command(exe, "--fleet-worker", "--worker-inner",
			"--seed", strconv.FormatInt(seed, 10), "--worker-report", report)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
		return cmd.Run()
	}
	signal.Ignore(syscall.SIGPIPE)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	serveErr := serve()
	pprof.StopCPUProfile()
	if errors.Is(serveErr, syscall.EPIPE) {
		serveErr = nil
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	data, err := json.Marshal(workerReport{
		PID: os.Getpid(), UserNS: ru.Utime.Nano(), SysNS: ru.Stime.Nano(),
		MaxRSSKB: ru.Maxrss, Profile: prof.Bytes(),
	})
	if err != nil {
		return err
	}
	// Write then rename, so the report exists only once complete.
	if err := os.WriteFile(report+".tmp", data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(report+".tmp", report); err != nil {
		return err
	}
	return serveErr
}

// fleetSweep is one fleet.Run with the worker processes it started.
type fleetSweep struct {
	res     *fleet.Result
	cmds    []*exec.Cmd
	reports []string // profiled workers' report paths
}

// runSweep runs one sweep of n cells on b.workers worker processes. With
// a report directory the workers are profiled.
func runSweep(b *bench, n int, reportDir string, spans *spanLog, parent open) (*fleetSweep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sw := &fleetSweep{}
	var mu sync.Mutex
	cfg := fleet.Config{
		Cells:   n,
		Workers: b.workers,
		Command: func(i int) (*exec.Cmd, error) {
			args := []string{"--fleet-worker", "--seed", strconv.FormatInt(b.seed, 10)}
			mu.Lock()
			defer mu.Unlock()
			if reportDir != "" {
				p := filepath.Join(reportDir, fmt.Sprintf("worker-%d.json", len(sw.cmds)))
				args = append(args, "--worker-report", p)
				sw.reports = append(sw.reports, p)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = b.log
			sw.cmds = append(sw.cmds, cmd)
			return cmd, nil
		},
		OnRecord: func(fleet.CellRecord) {
			spans.end(spans.begin("fleet.OnRecord", parent))
		},
	}
	sw.res, err = fleet.Run(context.Background(), cfg)
	return sw, err
}

// peakRSS returns each worker's peak RSS in KiB, from the process states
// fleet.Run collected. Workers fleet.Run lost mid-sweep are reaped
// asynchronously, so states are read only when no worker was lost.
func (sw *fleetSweep) peakRSS() []float64 {
	if sw.res == nil || sw.res.Stats.WorkerDeaths+sw.res.Stats.WorkerHangs > 0 {
		return nil
	}
	var out []float64
	for _, c := range sw.cmds {
		if c.ProcessState == nil {
			continue
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			out = append(out, float64(ru.Maxrss))
		}
	}
	return out
}

// collectReports waits for each profiled worker's report, removes it,
// and waits for the worker process to end.
func (sw *fleetSweep) collectReports() ([]workerReport, error) {
	var out []workerReport
	deadline := time.Now().Add(workerReportWait)
	for _, p := range sw.reports {
		data, err := os.ReadFile(p)
		for os.IsNotExist(err) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			data, err = os.ReadFile(p)
		}
		if err != nil {
			return nil, fmt.Errorf("worker report: %w", err)
		}
		os.Remove(p)
		var r workerReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("worker report %s: %w", p, err)
		}
		for processAlive(r.PID) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("profiled worker %d did not exit", r.PID)
			}
			time.Sleep(5 * time.Millisecond)
		}
		out = append(out, r)
	}
	return out, nil
}

// processAlive reports whether pid exists and is not a zombie.
func processAlive(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state follows the parenthesised command name.
	s := string(stat)
	i := strings.LastIndexByte(s, ')')
	return i >= 0 && i+2 < len(s) && s[i+2] != 'Z'
}

// runFleetSweep runs one fleet sweep over check.CellAt cells per round,
// each cell checked and then replayed bare in a worker process. A sweep
// fails unless every cell is recorded with no failure, violation or drop
// and its sweep_digest equals the recorded one (default seed) or the
// run's first sweep.
func runFleetSweep(b *bench) error {
	closeFn, err := b.setup(func() (func(), error) {
		_, err := runSweep(b, fleetPrimeCells, "", nil, open{})
		return nil, err
	})
	if err != nil {
		return err
	}
	defer closeFn()

	var reportDir string
	if b.traced {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		if reportDir, err = os.MkdirTemp(buildDir, "perfbench-workers-"); err != nil {
			return err
		}
		defer os.RemoveAll(reportDir)
	}
	want := ""
	if b.seed == defaultSeed {
		want = fleetDigest
	}
	var tracedPeakKB int64
	err = b.rounds(func(r *round) error {
		dir := ""
		if r.traced {
			dir = reportDir
		}
		cpu0 := selfCPU()
		sp := r.spans.begin("fleet.Run", open{})
		t0 := time.Now()
		sw, runErr := runSweep(b, fleetCells, dir, r.spans, sp)
		wall := time.Since(t0)
		r.spans.end(sp)
		coord := selfCPU() - cpu0
		if runErr != nil {
			r.gate(runErr)
			return nil
		}
		rep := fleet.BuildReport(b.seed, fleetCells, 0, true, sw.res.Records)
		r.gate(fleetGate(rep, &want))
		r.done(fleetCells)
		r.latency(wall)
		if !r.traced {
			b.workerRSSKB = append(b.workerRSSKB, sw.peakRSS()...)
			return nil
		}
		reports, err := sw.collectReports()
		if err != nil {
			return err
		}
		var user, sys time.Duration
		for _, wr := range reports {
			if err := b.prof.addProfile(wr.Profile); err != nil {
				return err
			}
			user += time.Duration(wr.UserNS)
			sys += time.Duration(wr.SysNS)
			tracedPeakKB = max(tracedPeakKB, wr.MaxRSSKB)
		}
		st := sw.res.Stats
		r.count("sweeps", 1)
		r.count("check.events", float64(rep.Events))
		r.count("check.violations", float64(rep.Violations))
		r.count("check.drops", float64(rep.Drops))
		r.count("fleet.steals", float64(st.Steals))
		r.count("fleet.redispatches", float64(st.Redispatches))
		r.count("fleet.worker_deaths", float64(st.WorkerDeaths+st.WorkerHangs))
		r.count("worker_cpu_ns", float64(user+sys))
		r.count("worker_sys_ns", float64(sys))
		r.count("worker_slot_ns", float64(wall)*float64(b.workers))
		r.count("fleet.coordinator_cpu_s", coord.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	c := b.counts
	sweeps := c["sweeps"]
	if sweeps == 0 {
		return nil
	}
	for _, k := range []string{"check.events", "check.violations", "check.drops", "fleet.steals",
		"fleet.redispatches", "fleet.worker_deaths", "fleet.coordinator_cpu_s"} {
		b.layer[k] = c[k] / sweeps
	}
	if c["worker_slot_ns"] > 0 {
		b.layer["fleet.worker_busy_frac"] = c["worker_cpu_ns"] / c["worker_slot_ns"]
	}
	if c["worker_cpu_ns"] > 0 {
		b.layer["fleet.sys_cpu_frac"] = c["worker_sys_ns"] / c["worker_cpu_ns"]
	}
	b.layer["fleet.worker_peak_rss_mb"] = float64(tracedPeakKB) / 1024
	return nil
}

// fleetGate checks one sweep's merged report. *want is the reference
// sweep digest; an empty one is set from this sweep.
func fleetGate(rep *fleet.Report, want *string) error {
	if rep.Partial != 0 || rep.Failed != 0 || rep.Violations != 0 || rep.Drops != 0 {
		return fmt.Errorf("sweep: partial=%d failed=%d violations=%d drops=%d",
			rep.Partial, rep.Failed, rep.Violations, rep.Drops)
	}
	if *want == "" {
		*want = rep.SweepDigest
	}
	if rep.SweepDigest != *want {
		return fmt.Errorf("sweep_digest %s, want %s", rep.SweepDigest, *want)
	}
	return nil
}
