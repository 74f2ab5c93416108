package pscavenge

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/heap"
	"repro/internal/jmutex"
	"repro/internal/objgraph"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// workerScript is a machine and GC configuration for runWorkerScript.
type workerScript struct {
	topo    *ostopo.Topology
	threads int // GC threads; 0 applies HotSpot's heuristic
	policy  jmutex.Policy
	vmCore  ostopo.CoreID // where the VM thread starts
	// blocking marks an oversubscribed script that must reach every
	// blocking step a worker plan performs as a yield, sleep or park.
	blocking bool
}

// workerScripts are the configurations TestWorkerPlanMatchesLoop checks:
// the paper testbed with HotSpot's defaults (two NUMA nodes, one GC thread
// per CPU), and 12 GC threads on a 4-core, 8-CPU machine, so they share
// CPUs, yield to each other, straggle in termination and contend for the
// manager monitor. The FIFO and wake-all runs of the oversubscribed script
// clamp a timer the kernel model schedules into the past, in both modes
// (see ROADMAP), so it runs under the competitive policies only.
var workerScripts = []struct {
	name string
	workerScript
}{
	{"paper-testbed", workerScript{topo: ostopo.PaperTestbed(), vmCore: 19}},
	{"oversubscribed-HotSpot", workerScript{topo: &ostopo.Topology{PhysCores: 4, SMTWays: 2, Nodes: 1},
		threads: 12, policy: jmutex.PolicyHotSpot, vmCore: 7, blocking: true}},
	{"oversubscribed-NoFastPath", workerScript{topo: &ostopo.Topology{PhysCores: 4, SMTWays: 2, Nodes: 1},
		threads: 12, policy: jmutex.PolicyNoFastPath, vmCore: 7, blocking: true}},
}

// runWorkerScript drives a fixed fill/minor/fill/minor/major schedule on
// sc's machine with full event-bus tracing and returns the complete event
// stream, the GC reports, and the kernel counters. loop selects the legacy
// Compute-per-step worker bodies (true) or the plan-driven state machines
// (false).
func runWorkerScript(t *testing.T, sc workerScript, loop bool) ([]evtrace.Event, []*GCReport, cfs.KernelStats) {
	t.Helper()
	sim := simkit.New(31)
	t.Cleanup(sim.Close)
	tr := evtrace.New(1 << 20)
	sim.SetTracer(tr)
	k := cfs.NewKernel(sim, sc.topo, cfs.DefaultParams())
	k.SetEvTracer(tr)
	h, err := heap.New(heap.Config{
		EdenBytes: 1 << 20, SurvivorBytes: 1 << 18, OldBytes: 1 << 22, TenureAge: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	var muts []*objgraph.Mutator
	for i := 0; i < 6; i++ {
		m, err := objgraph.NewMutator(i, h, objgraph.DefaultParams(), rng)
		if err != nil {
			t.Fatal(err)
		}
		muts = append(muts, m)
	}
	g := New(k, h, Options{LoopWorkers: loop, Threads: sc.threads, MutexPolicy: sc.policy})

	fill := func() {
		for i := 0; ; i = (i + 1) % len(muts) {
			if _, ok := muts[i].AllocCluster(); !ok {
				return
			}
		}
	}
	roots := func() RootSet {
		rs := RootSet{}
		for _, m := range muts {
			rs.ThreadRoots = append(rs.ThreadRoots, m.Roots())
		}
		return rs
	}

	done := false
	k.Spawn("VMThread", sc.vmCore, func(e *cfs.Env) {
		fill()
		g.RunMinorGC(e, roots())
		fill()
		g.RunMinorGC(e, roots())
		major := RootSet{}
		for _, m := range muts {
			major.ThreadRoots = append(major.ThreadRoots, m.Roots())
			major.StaticRoots = append(major.StaticRoots, m.Anchor())
		}
		g.RunMajorGC(e, major)
		g.Shutdown(e)
		done = true
	})
	for !done && sim.Now() < 60*simkit.Second {
		if !sim.Step() {
			break
		}
	}
	if !done {
		t.Fatalf("VM thread did not finish by %v", sim.Now())
	}
	k.Shutdown()
	for sim.Step() {
	}
	if n := sim.Clamped(); n != 0 {
		t.Fatalf("simulation clamped %d past-scheduled events, want 0", n)
	}
	return tr.Events(), g.Reports, k.Stats
}

// TestWorkerPlanMatchesLoop is the loop-vs-plan identity oracle for the GC
// worker state machines: the plan-driven workers must replay the legacy
// coroutine loop's behavior exactly on every workerScripts configuration.
// Every bus event (kernel dispatches, scheduler timers, monitor hand-offs,
// task dispatches, steal traffic) and every report field must match; only
// the elision counters — how the work was serviced, not what work happened
// — may differ.
func TestWorkerPlanMatchesLoop(t *testing.T) {
	for _, sc := range workerScripts {
		t.Run(sc.name, func(t *testing.T) {
			evLoop, repLoop, ksLoop := runWorkerScript(t, sc.workerScript, true)
			evPlan, repPlan, ksPlan := runWorkerScript(t, sc.workerScript, false)

			if len(evLoop) != len(evPlan) {
				t.Fatalf("event stream length diverged: loop=%d plan=%d", len(evLoop), len(evPlan))
			}
			for i := range evLoop {
				if evLoop[i] != evPlan[i] {
					t.Fatalf("event %d diverged:\nloop: %+v\nplan: %+v", i, evLoop[i], evPlan[i])
				}
			}
			if !reflect.DeepEqual(repLoop, repPlan) {
				t.Errorf("GC reports diverged:\nloop: %+v\nplan: %+v", repLoop, repPlan)
			}

			c := countBlockingSteps(evPlan)
			if sc.blocking {
				// The script must reach every blocking step the plan
				// performs as a yield, sleep or park, or the identity
				// above does not cover it.
				if c.termSleeps == 0 || c.lockParks == 0 || c.waitParks == 0 || c.yields == 0 {
					t.Errorf("script misses a blocking step: %+v", c)
				}
				// The plan workers' body resumes (start, shutdown) and the
				// VM thread's stay below even one per blocking step.
				if ksPlan.BodyResumes >= c.spins+c.blocks {
					t.Errorf("plan BodyResumes = %d, want < %d KTermSpin + KLockBlock events",
						ksPlan.BodyResumes, c.spins+c.blocks)
				}
			}
			// Each termination spin or sleep and each monitor park costs
			// the loop workers at least one body resume; the plan workers
			// perform them without one.
			if saved := ksLoop.BodyResumes - ksPlan.BodyResumes; saved < c.spins+c.blocks {
				t.Errorf("plan workers saved %d body resumes (loop=%d plan=%d), want >= %d KTermSpin + KLockBlock events",
					saved, ksLoop.BodyResumes, ksPlan.BodyResumes, c.spins+c.blocks)
			}
			if ksPlan.BurstElisions <= ksLoop.BurstElisions {
				t.Errorf("plan workers produced no extra burst elisions: loop=%d plan=%d",
					ksLoop.BurstElisions, ksPlan.BurstElisions)
			}
			// Everything except the elision bookkeeping must be identical.
			ksLoop.BodyResumes, ksPlan.BodyResumes = 0, 0
			ksLoop.PlanElisions, ksPlan.PlanElisions = 0, 0
			ksLoop.BurstElisions, ksPlan.BurstElisions = 0, 0
			if ksLoop != ksPlan {
				t.Errorf("kernel stats diverged beyond elision counters:\nloop: %+v\nplan: %+v", ksLoop, ksPlan)
			}
		})
	}
}

// blockingSteps counts the blocking steps of a worker-script event stream.
type blockingSteps struct {
	spins      int // KTermSpin: termination spins and sleeps
	termSleeps int // KTermSpin with Arg2 = 1
	blocks     int // KLockBlock on any monitor
	lockParks  int // contended GCTaskManager entries that parked (Arg2 = 0)
	waitParks  int // GCTaskManager WaitSet parks (Arg2 = 1)
	yields     int // sched_yield with other threads runnable
}

// countBlockingSteps counts c's steps in evs. A yield onto a busy runqueue
// is the only kernel transition whose requeue (KRunqPush) is the next
// kernel event after the thread's own dispatch span ends on that core,
// unless a slice preemption (KPreempt of the thread) or a wakeup preemption
// (a woken thread pushed onto the core at that instant) led to it: a sleep
// or park requeues only after a KWakeup, and a migration after a KMigrate.
func countBlockingSteps(evs []evtrace.Event) blockingSteps {
	var c blockingSteps
	var last, before evtrace.Event // the two latest kernel events
	for _, ev := range evs {
		switch ev.Kind {
		case evtrace.KTermSpin:
			c.spins++
			if ev.Arg2 == 1 {
				c.termSleeps++
			}
		case evtrace.KLockBlock:
			c.blocks++
			if ev.Name == "GCTaskManager" {
				if ev.Arg2 == 0 {
					c.lockParks++
				} else {
					c.waitParks++
				}
			}
		}
		if ev.Kind.Layer() != evtrace.LayerCFS {
			continue
		}
		if ev.Kind == evtrace.KRunqPush && last.Kind == evtrace.KDispatch &&
			last.TID == ev.TID && last.Core == ev.Core && last.At+last.Dur == ev.At &&
			!(before.Kind == evtrace.KPreempt && before.TID == ev.TID) &&
			!(before.Kind == evtrace.KRunqPush && before.Core == ev.Core && before.At == ev.At) {
			c.yields++
		}
		before, last = last, ev
	}
	return c
}
