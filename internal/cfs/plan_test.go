package cfs

import (
	"reflect"
	"testing"

	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// planScenario builds a one-node machine, spawns a worker whose compute
// work is issued by issue, optionally spawns a competitor on the same core
// to force preemption mid-plan, runs to completion, and returns the
// observables that must not depend on how the work was issued.
type planResult struct {
	events  []evtrace.Event
	fired   uint64
	end     simkit.Time
	cpu     simkit.Time
	vrun    simkit.Time
	stats   KernelStats
	compCPU simkit.Time
}

func planScenario(t *testing.T, competitor bool, issue func(e *Env)) planResult {
	t.Helper()
	sim := simkit.New(7)
	t.Cleanup(sim.Close)
	topo := &ostopo.Topology{PhysCores: 2, SMTWays: 1, Nodes: 1}
	tr := evtrace.New(1 << 18)
	sim.SetTracer(tr)
	k := NewKernel(sim, topo, DefaultParams())
	k.SetEvTracer(tr)

	var end simkit.Time
	worker := k.Spawn("worker", 0, func(e *Env) {
		e.SetAffinity(0)
		issue(e)
		end = e.Now()
	})
	threads := []*Thread{worker}
	var comp *Thread
	if competitor {
		comp = k.Spawn("rival", 0, func(e *Env) {
			e.SetAffinity(0)
			for i := 0; i < 40; i++ {
				e.Compute(3 * ms)
				e.Sleep(2 * ms)
			}
		})
		threads = append(threads, comp)
	}
	drain(t, sim, k, simkit.Time(60)*simkit.Second, threads...)
	k.Shutdown()

	res := planResult{
		events: append([]evtrace.Event(nil), tr.Events()...),
		fired:  sim.Fired(),
		end:    end,
		cpu:    worker.CPUTime,
		vrun:   worker.vruntime,
		stats:  k.Stats,
	}
	if comp != nil {
		res.compCPU = comp.CPUTime
	}
	return res
}

// TestComputePlanElidesResumes is the tentpole's contract: issuing N
// identical slices as one ComputeN plan must leave every simulation
// observable — the fired-event stream, virtual end time, CPU accounting —
// byte-identical to N sequential Compute calls, while resuming the body
// far fewer times.
func TestComputePlanElidesResumes(t *testing.T) {
	const n = 200
	const slice = 1 * ms
	for _, tc := range []struct {
		name       string
		competitor bool
	}{
		{"uncontended", false},
		{"preempted-mid-plan", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := planScenario(t, tc.competitor, func(e *Env) {
				for i := 0; i < n; i++ {
					e.Compute(slice)
				}
			})
			plan := planScenario(t, tc.competitor, func(e *Env) {
				e.ComputeN(slice, n)
			})

			if loop.end != plan.end {
				t.Errorf("end time diverged: loop %v, plan %v", loop.end, plan.end)
			}
			if loop.cpu != plan.cpu || loop.vrun != plan.vrun {
				t.Errorf("accounting diverged: loop cpu=%v vrun=%v, plan cpu=%v vrun=%v",
					loop.cpu, loop.vrun, plan.cpu, plan.vrun)
			}
			if loop.compCPU != plan.compCPU {
				t.Errorf("competitor CPU diverged: loop %v, plan %v", loop.compCPU, plan.compCPU)
			}
			if loop.fired != plan.fired {
				t.Errorf("fired-event count diverged: loop %d, plan %d", loop.fired, plan.fired)
			}
			if !reflect.DeepEqual(loop.events, plan.events) {
				i := 0
				for i < len(loop.events) && i < len(plan.events) &&
					loop.events[i] == plan.events[i] {
					i++
				}
				t.Fatalf("event streams diverged at index %d of %d/%d:\nloop: %+v\nplan: %+v",
					i, len(loop.events), len(plan.events),
					at(loop.events, i), at(plan.events, i))
			}

			if got := plan.stats.PlanElisions; got != n-1 {
				t.Errorf("PlanElisions = %d, want %d", got, n-1)
			}
			if loop.stats.PlanElisions != 0 {
				t.Errorf("loop run recorded %d PlanElisions, want 0", loop.stats.PlanElisions)
			}
			// The loop body resumes at least once per slice; the plan body
			// resumes a constant handful of times regardless of n.
			if loop.stats.BodyResumes < n {
				t.Errorf("loop BodyResumes = %d, want >= %d", loop.stats.BodyResumes, n)
			}
			if plan.stats.BodyResumes > loop.stats.BodyResumes-(n-1) {
				t.Errorf("plan BodyResumes = %d, want <= %d (loop %d minus %d elided)",
					plan.stats.BodyResumes, loop.stats.BodyResumes-(n-1), loop.stats.BodyResumes, n-1)
			}
		})
	}
}

func at(evs []evtrace.Event, i int) any {
	if i < len(evs) {
		return evs[i]
	}
	return "<end of stream>"
}

// TestComputeForeverMatchesBusyLoop checks the endless-plan variant against
// the busy-loop idiom it replaces, using a finite thread sharing the core
// as the clock: when it finishes, both machines must agree on every
// observable, and the endless plan must not have resumed its body.
func TestComputeForeverMatchesBusyLoop(t *testing.T) {
	// planScenario drains until all listed threads are done, but an endless
	// body never finishes — drive on the competitor instead.
	scenario := func(t *testing.T, busy func(e *Env)) (planResult, simkit.Time) {
		t.Helper()
		sim := simkit.New(11)
		t.Cleanup(sim.Close)
		topo := &ostopo.Topology{PhysCores: 1, SMTWays: 1, Nodes: 1}
		tr := evtrace.New(1 << 18)
		sim.SetTracer(tr)
		k := NewKernel(sim, topo, DefaultParams())
		k.SetEvTracer(tr)
		looper := k.Spawn("busy", 0, busy)
		rival := k.Spawn("rival", 0, func(e *Env) {
			for i := 0; i < 25; i++ {
				e.Compute(4 * ms)
				e.Sleep(1 * ms)
			}
		})
		drain(t, sim, k, simkit.Time(10)*simkit.Second, rival)
		k.Shutdown()
		return planResult{
			events: append([]evtrace.Event(nil), tr.Events()...),
			fired:  sim.Fired(),
			cpu:    looper.CPUTime,
			vrun:   looper.vruntime,
			stats:  k.Stats,
		}, sim.Now()
	}

	loop, loopNow := scenario(t, func(e *Env) {
		for {
			e.Compute(1 * ms)
		}
	})
	plan, planNow := scenario(t, func(e *Env) {
		e.ComputeForever(1 * ms)
	})

	if loopNow != planNow {
		t.Errorf("final time diverged: loop %v, plan %v", loopNow, planNow)
	}
	if loop.cpu != plan.cpu || loop.vrun != plan.vrun {
		t.Errorf("accounting diverged: loop cpu=%v vrun=%v, plan cpu=%v vrun=%v",
			loop.cpu, loop.vrun, plan.cpu, plan.vrun)
	}
	if loop.fired != plan.fired {
		t.Errorf("fired-event count diverged: loop %d, plan %d", loop.fired, plan.fired)
	}
	if !reflect.DeepEqual(loop.events, plan.events) {
		t.Errorf("event streams diverged (%d vs %d events)", len(loop.events), len(plan.events))
	}
	if plan.stats.PlanElisions == 0 {
		t.Error("endless plan recorded no elisions")
	}
	// One resume starts the endless body; it never needs another.
	if d := loop.stats.BodyResumes - plan.stats.BodyResumes; d < 100 {
		t.Errorf("expected the endless plan to elide most resumes; loop=%d plan=%d",
			loop.stats.BodyResumes, plan.stats.BodyResumes)
	}
}

// TestComputePlanCallbackMatchesLoop checks the callback-plan form against
// the equivalent Compute loop: varying slice durations, zero-length slices
// (skipped like Compute(0)), and driver-side work between slices must leave
// every observable identical while eliding the per-slice resumes.
func TestComputePlanCallbackMatchesLoop(t *testing.T) {
	const n = 120
	slices := func(i int) simkit.Time {
		switch i % 4 {
		case 0:
			return 50 * simkit.Nanosecond
		case 1:
			return 0 // must be skipped, like Compute(0)
		case 2:
			return 2 * ms
		default:
			return 700 * simkit.Microsecond
		}
	}
	for _, tc := range []struct {
		name       string
		competitor bool
	}{
		{"uncontended", false},
		{"preempted-mid-plan", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var loopSum, planSum int64
			loop := planScenario(t, tc.competitor, func(e *Env) {
				for i := 0; i < n; i++ {
					loopSum += int64(i) // between-slice work
					e.Compute(slices(i))
				}
			})
			plan := planScenario(t, tc.competitor, func(e *Env) {
				i := 0
				e.ComputePlan(func() (Op, simkit.Time) {
					if i >= n {
						return OpDone, 0
					}
					planSum += int64(i)
					d := slices(i)
					i++
					return OpCompute, d
				})
			})

			if loopSum != planSum {
				t.Errorf("between-slice work diverged: loop %d, plan %d", loopSum, planSum)
			}
			if loop.end != plan.end {
				t.Errorf("end time diverged: loop %v, plan %v", loop.end, plan.end)
			}
			if loop.cpu != plan.cpu || loop.vrun != plan.vrun {
				t.Errorf("accounting diverged: loop cpu=%v vrun=%v, plan cpu=%v vrun=%v",
					loop.cpu, loop.vrun, plan.cpu, plan.vrun)
			}
			if loop.compCPU != plan.compCPU {
				t.Errorf("competitor CPU diverged: loop %v, plan %v", loop.compCPU, plan.compCPU)
			}
			if loop.fired != plan.fired {
				t.Errorf("fired-event count diverged: loop %d, plan %d", loop.fired, plan.fired)
			}
			if !reflect.DeepEqual(loop.events, plan.events) {
				i := 0
				for i < len(loop.events) && i < len(plan.events) &&
					loop.events[i] == plan.events[i] {
					i++
				}
				t.Fatalf("event streams diverged at index %d of %d/%d:\nloop: %+v\nplan: %+v",
					i, len(loop.events), len(plan.events),
					at(loop.events, i), at(plan.events, i))
			}
			// 90 positive slices; all but the first elide a resume.
			if got := plan.stats.BurstElisions; got != 89 {
				t.Errorf("BurstElisions = %d, want 89", got)
			}
			if loop.stats.BurstElisions != 0 {
				t.Errorf("loop run recorded %d BurstElisions, want 0", loop.stats.BurstElisions)
			}
		})
	}
}

// reqStep is one operation of a plan-request test script.
type reqStep struct {
	op Op
	d  simkit.Time
}

// reqResult holds the observables a plan request must leave exactly as the
// equivalent body call does.
type reqResult struct {
	events []evtrace.Event
	fired  uint64
	cpu    []simkit.Time
	vrun   []simkit.Time
	stats  KernelStats
}

// runRequestScript runs script on a worker pinned to CPU 0, performing each
// step either in the body (Env.Do) or as the steps of one compute plan,
// next to the helper threads setup spawns. Every thread is pinned, so only
// the worker's way of issuing its steps differs between the two runs.
func runRequestScript(t *testing.T, topo ostopo.Topology, script []reqStep,
	setup func(k *Kernel, worker *Thread) []*Thread, viaPlan bool) reqResult {
	t.Helper()
	sim := simkit.New(5)
	t.Cleanup(sim.Close)
	tr := evtrace.New(1 << 18)
	sim.SetTracer(tr)
	k := NewKernel(sim, &topo, DefaultParams())
	k.SetEvTracer(tr)
	worker := k.Spawn("worker", 0, func(e *Env) {
		e.SetAffinity(0)
		if !viaPlan {
			for _, s := range script {
				e.Do(s.op, s.d)
			}
			return
		}
		i := 0
		e.ComputePlan(func() (Op, simkit.Time) {
			if i == len(script) {
				return OpDone, 0
			}
			s := script[i]
			i++
			return s.op, s.d
		})
	})
	threads := append([]*Thread{worker}, setup(k, worker)...)
	drain(t, sim, k, 10*simkit.Second, threads...)
	k.Shutdown()
	if n := sim.Clamped(); n != 0 {
		t.Fatalf("simulation clamped %d past-scheduled events, want 0", n)
	}
	res := reqResult{
		events: append([]evtrace.Event(nil), tr.Events()...),
		fired:  sim.Fired(),
		stats:  k.Stats,
	}
	for _, th := range threads {
		res.cpu = append(res.cpu, th.CPUTime)
		res.vrun = append(res.vrun, th.vruntime)
	}
	return res
}

// pinned spawns a helper thread bound to core c.
func pinned(k *Kernel, name string, c ostopo.CoreID, body func(e *Env)) *Thread {
	return k.Spawn(name, c, func(e *Env) {
		e.SetAffinity(c)
		body(e)
	})
}

// TestPlanRequestsMatchBody is the plan-request contract: a yield, sleep or
// park a compute plan returns must leave the fired-event stream, every thread's vruntime and CPU time, and
// the kernel counters (apart from the elision counters) exactly as the
// body's YieldCPU, Sleep or Park at the same points.
func TestPlanRequestsMatchBody(t *testing.T) {
	oneCore := ostopo.Topology{PhysCores: 1, SMTWays: 1, Nodes: 1}
	twoCores := ostopo.Topology{PhysCores: 2, SMTWays: 1, Nodes: 1}
	smtPair := ostopo.Topology{PhysCores: 1, SMTWays: 2, Nodes: 1}
	compute := func(d simkit.Time) reqStep { return reqStep{OpCompute, d} }
	yield := reqStep{op: OpYield}
	sleep := func(d simkit.Time) reqStep { return reqStep{OpSleep, d} }
	park := reqStep{op: OpPark}
	repeat := func(n int, steps ...reqStep) []reqStep {
		var s []reqStep
		for i := 0; i < n; i++ {
			s = append(s, steps...)
		}
		return s
	}
	none := func(*Kernel, *Thread) []*Thread { return nil }
	// rival keeps a core's runqueue busy in bursts.
	rival := func(c ostopo.CoreID, burst, gap simkit.Time) func(*Kernel, *Thread) []*Thread {
		return func(k *Kernel, _ *Thread) []*Thread {
			return []*Thread{pinned(k, "rival", c, func(e *Env) {
				for i := 0; i < 30; i++ {
					e.Compute(burst)
					e.Sleep(gap)
				}
			})}
		}
	}
	// unparker unparks the worker from core 1 after each of the delays.
	unparker := func(delays ...simkit.Time) func(*Kernel, *Thread) []*Thread {
		return func(k *Kernel, w *Thread) []*Thread {
			return []*Thread{pinned(k, "unparker", 1, func(e *Env) {
				for _, d := range delays {
					e.Sleep(d)
					k.Unpark(w)
				}
			})}
		}
	}

	for _, tc := range []struct {
		name   string
		topo   ostopo.Topology
		script []reqStep
		setup  func(k *Kernel, worker *Thread) []*Thread
	}{
		{"yield-empty-runqueue", oneCore,
			repeat(10, compute(300*us), yield), none},
		{"yield-busy-runqueue", oneCore,
			repeat(40, compute(700*us), yield), rival(0, 2*ms, 500*us)},
		{"sleep", oneCore,
			repeat(20, compute(400*us), sleep(1500*us)), rival(0, 3*ms, 1*ms)},
		// The unpark lands while the worker still computes: a stored permit.
		{"park-with-stored-permit", twoCores,
			[]reqStep{compute(5 * ms), park, compute(1 * ms), park, compute(1 * ms)},
			unparker(1*ms, 4*ms)},
		{"park-woken-by-unpark", twoCores,
			repeat(6, compute(500*us), park), unparker(2*ms, 3*ms, 1*ms, 5*ms, 2*ms, 2*ms)},
		// Every step is a request on ComputePlan's first, body-side
		// consultation until the first positive slice.
		{"request-on-first-consultation", twoCores,
			[]reqStep{park, yield, sleep(1 * ms), compute(1 * ms), park, compute(1 * ms)},
			unparker(500*us, 3*ms)},
		// The worker's slices straddle its SMT sibling's busy/idle flips,
		// and each request switches the CPU to the rival sharing it, so
		// every redispatch charges the context-switch cost.
		{"smt-slowed-slices-then-context-switch", smtPair,
			repeat(25, compute(333*us+7), yield, compute(211*us+3), sleep(97*us)),
			func(k *Kernel, w *Thread) []*Thread {
				return append(rival(0, 1*ms+1, 300*us)(k, w),
					pinned(k, "sibling", 1, func(e *Env) {
						for i := 0; i < 80; i++ {
							e.Compute(123*us + 1)
							e.Sleep(77*us + 1)
						}
					}))
			}},
		// A new-idle pull from CPU 0 reprograms the worker's timer from its
		// last accounting, so the slice ends past its work with a negative
		// remaining; the request must discard it, or the redispatch after
		// the sharer ran would skip the context-switch cost.
		{"residue-then-context-switch", twoCores,
			repeat(6, compute(6*ms), sleep(1*ms), compute(2*ms), yield),
			func(k *Kernel, w *Thread) []*Thread {
				migrant := k.Spawn("migrant", 0, func(e *Env) {
					for i := 0; i < 12; i++ {
						e.Compute(1 * ms)
						e.Sleep(3 * ms)
					}
				})
				return append(rival(0, 300*us, 2*ms)(k, w), migrant,
					pinned(k, "idler", 1, func(e *Env) {
						for i := 0; i < 12; i++ {
							e.Compute(1 * ms)
							e.Sleep(4 * ms)
						}
					}))
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := runRequestScript(t, tc.topo, tc.script, tc.setup, false)
			plan := runRequestScript(t, tc.topo, tc.script, tc.setup, true)
			if !reflect.DeepEqual(body.events, plan.events) {
				i := 0
				for i < len(body.events) && i < len(plan.events) &&
					body.events[i] == plan.events[i] {
					i++
				}
				t.Fatalf("event streams diverged at index %d of %d/%d:\nbody: %+v\nplan: %+v",
					i, len(body.events), len(plan.events),
					at(body.events, i), at(plan.events, i))
			}
			if body.fired != plan.fired {
				t.Errorf("fired-event count diverged: body %d, plan %d", body.fired, plan.fired)
			}
			if !reflect.DeepEqual(body.cpu, plan.cpu) || !reflect.DeepEqual(body.vrun, plan.vrun) {
				t.Errorf("accounting diverged: body cpu=%v vrun=%v, plan cpu=%v vrun=%v",
					body.cpu, body.vrun, plan.cpu, plan.vrun)
			}
			if plan.stats.BodyResumes >= body.stats.BodyResumes {
				t.Errorf("plan requests elided no body resumes: body=%d plan=%d",
					body.stats.BodyResumes, plan.stats.BodyResumes)
			}
			body.stats.BodyResumes, plan.stats.BodyResumes = 0, 0
			body.stats.PlanElisions, plan.stats.PlanElisions = 0, 0
			body.stats.BurstElisions, plan.stats.BurstElisions = 0, 0
			if body.stats != plan.stats {
				t.Errorf("kernel stats diverged beyond elision counters:\nbody: %+v\nplan: %+v",
					body.stats, plan.stats)
			}
		})
	}
}
