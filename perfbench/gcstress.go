package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"repro/internal/core"
	"repro/internal/jvm"
	"repro/internal/runner"
	"repro/internal/workload"
)

// gcStressItems sizes each cell. Cells run out of old generation at about
// 40000 items under the halved heap, so stay well below.
const gcStressItems = 15000

// gcStressDigest is the digest of one pass's simulated results on the
// default seed (see gcStressCellDigest).
const gcStressDigest = "28aadaf70f617637cb1b0a90a9955b2572548c3c62cff7542c216bc51517955d"

var gcStressBenchmarks = []string{"lusearch", "xalan", "sunflow"}

// gcStressConfigs is the cell set of one pass: three DaCapo benchmarks ×
// {vanilla, all optimizations} × {20, 40} GC threads, 16 mutators, half
// the benchmark's minimum heap so collections dominate.
func gcStressConfigs(seed int64) ([]core.Config, error) {
	var cfgs []core.Config
	for _, name := range gcStressBenchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p.TotalItems = gcStressItems
		for _, opt := range []core.Optimizations{core.OptNone, core.OptAll} {
			for _, threads := range []int{20, 40} {
				cfgs = append(cfgs, core.Config{
					Profile:       p,
					Mutators:      16,
					GCThreads:     threads,
					HeapMB:        p.MinHeapMB / 2,
					Optimizations: opt,
					Seed:          seed + int64(len(cfgs)),
				})
			}
		}
	}
	return cfgs, nil
}

// gcStressCellDigest writes one cell's simulated results into h: times,
// collection counts, steal and monitor statistics and events fired.
func gcStressCellDigest(h hash.Hash, i int, r *jvm.Result) {
	fmt.Fprintf(h, "%d total=%d gc=%d minor=%d/%d major=%d/%d steal=%d/%d monitor=%+v events=%d items=%d\n",
		i, r.TotalTime, r.GCTime, r.MinorGCs, r.MinorGCTime, r.MajorGCs, r.MajorGCTime,
		r.Steal.TotalAttempts(), r.Steal.TotalFailures(), r.Monitor, r.EventsFired, r.ItemsDone)
}

// runGCStress runs the cell set once per round on a runner.Pool, each
// cell through core.BuildRunSpec and jvm.Run. A pass fails on any run
// error (including OutOfMemoryError) or when its results digest differs
// from the recorded one (default seed) or from the run's first pass.
func runGCStress(b *bench) error {
	var (
		cfgs []core.Config
		pool *runner.Pool
	)
	closeFn, err := b.setup(func() (func(), error) {
		c, err := gcStressConfigs(b.seed)
		if err != nil {
			return nil, err
		}
		cfgs = c
		pool = runner.New(b.workers)
		// Prime: build every spec and run the smallest cell once,
		// reduced, to warm the pool's scratch.
		for _, cfg := range cfgs {
			if _, err := core.BuildRunSpec(cfg); err != nil {
				return nil, err
			}
		}
		small := cfgs[0]
		small.Profile.TotalItems = gcStressItems / 10
		spec, err := core.BuildRunSpec(small)
		if err != nil {
			return nil, err
		}
		_, err = runCell(pool, spec)
		return nil, err
	})
	if err != nil {
		return err
	}
	defer closeFn()

	want := ""
	if b.seed == defaultSeed {
		want = gcStressDigest
	}
	err = b.rounds(func(r *round) error {
		results := make([]*jvm.Result, len(cfgs))
		errs := make([]error, len(cfgs))
		snap := pool.Snapshot()
		fe := r.spans.begin("Pool.ForEach", open{})
		pool.ForEach(len(cfgs), func(i int) {
			sp := r.spans.begin("core.BuildRunSpec", fe)
			spec, err := core.BuildRunSpec(cfgs[i])
			r.spans.end(sp)
			if err != nil {
				errs[i] = err
				return
			}
			sp = r.spans.begin("jvm.Run", fe)
			t0 := time.Now()
			results[i], errs[i] = runCell(pool, spec)
			r.latency(time.Since(t0))
			r.spans.end(sp)
		})
		r.spans.end(fe)
		_, busy := pool.StatsSince(snap)
		r.done(float64(len(cfgs)))
		r.count("busy_ns", float64(busy))
		r.gate(gcStressGate(r, results, errs, &want))
		return nil
	})
	if err != nil {
		return err
	}
	c := b.counts
	cells := c["cells"]
	if cells == 0 {
		return nil
	}
	for _, k := range []string{"simkit.events", "cfs.body_resumes", "cfs.plan_elisions",
		"cfs.burst_elisions", "cfs.context_switches", "jmutex.fast_acquires",
		"jmutex.slow_acquires", "jmutex.park_events", "taskq.steal_attempts",
		"pscavenge.collections", "pscavenge.sim_gc_ms", "heap.alloc_objects",
		"heap.promoted_objects", "heap.ref_compactions", "jvm.items_done"} {
		b.layer[k] = c[k] / cells
	}
	b.layer["runner.tasks"] = cells / c["passes"]
	if ev := c["simkit.events"]; ev > 0 {
		b.layer["simkit.inlined_frac"] = c["simkit.inlined"] / ev
		b.layer["simkit.host_ns_per_event"] = c["busy_ns"] / ev
	}
	if d := c["cfs.plan_elisions"] + c["cfs.burst_elisions"] + c["cfs.body_resumes"]; d > 0 {
		b.layer["cfs.elision_frac"] = (c["cfs.plan_elisions"] + c["cfs.burst_elisions"]) / d
	}
	if a := c["taskq.steal_attempts"]; a > 0 {
		b.layer["taskq.steal_fail_frac"] = c["taskq.steal_failures"] / a
	}
	return nil
}

// runCell runs one spec on scratch borrowed from the pool.
func runCell(pool *runner.Pool, spec jvm.RunSpec) (*jvm.Result, error) {
	sc, _ := pool.GetScratch().(*jvm.Scratch)
	if sc == nil {
		sc = new(jvm.Scratch)
	}
	defer pool.PutScratch(sc)
	spec.Scratch = sc
	res, err := jvm.Run(spec)
	if err == nil && res.Err != nil {
		err = res.Err
	}
	return res, err
}

// gcStressGate checks one pass and, in a traced round, counts its layer
// work. *want is the reference digest; an empty one is set from this pass.
func gcStressGate(r *round, results []*jvm.Result, errs []error, want *string) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cell %d: %v", i, err)
		}
	}
	h := sha256.New()
	for i, res := range results {
		gcStressCellDigest(h, i, res)
		r.count("cells", 1)
		r.count("simkit.events", float64(res.EventsFired))
		r.count("simkit.inlined", float64(res.EventsInlined))
		r.count("cfs.body_resumes", float64(res.Kernel.BodyResumes))
		r.count("cfs.plan_elisions", float64(res.Kernel.PlanElisions))
		r.count("cfs.burst_elisions", float64(res.Kernel.BurstElisions))
		r.count("cfs.context_switches", float64(res.Kernel.ContextSwitches))
		r.count("jmutex.fast_acquires", float64(res.Monitor.FastAcquires))
		r.count("jmutex.slow_acquires", float64(res.Monitor.SlowAcquires))
		r.count("jmutex.park_events", float64(res.Monitor.ParkEvents))
		r.count("taskq.steal_attempts", float64(res.Steal.TotalAttempts()))
		r.count("taskq.steal_failures", float64(res.Steal.TotalFailures()))
		r.count("pscavenge.collections", float64(res.MinorGCs+res.MajorGCs))
		r.count("pscavenge.sim_gc_ms", res.GCTime.Millis())
		r.count("heap.alloc_objects", float64(res.Heap.AllocatedObjects))
		r.count("heap.promoted_objects", float64(res.Heap.PromotedObjects))
		r.count("heap.ref_compactions", float64(res.Heap.RefCompactions))
		r.count("jvm.items_done", float64(res.ItemsDone))
	}
	r.count("passes", 1)
	got := hex.EncodeToString(h.Sum(nil))
	if *want == "" {
		*want = got
	}
	if got != *want {
		return fmt.Errorf("gc-stress results digest %s, want %s", got, *want)
	}
	return nil
}
