package jvm

import (
	"testing"

	"repro/internal/workload"
)

// TestGCWorkersRunAsPlans asserts that on a stock run the GC worker bodies
// are serviced as kernel compute plans: the run must record driver-side
// slice elisions and inline-fired events, and resume far fewer coroutine
// bodies than the legacy loop-worker oracle on the same cell. Result
// equality between the two modes is asserted structurally here and
// event-by-event in pscavenge's TestWorkerPlanMatchesLoop.
func TestGCWorkersRunAsPlans(t *testing.T) {
	p := workload.Lusearch()
	p.TotalItems /= 8 // reduced cell: a few GCs is enough
	base := Config{Profile: p, Mutators: 16, Seed: 1}

	plan, err := Run(RunSpec{Config: base, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	loopCfg := base
	loopCfg.LoopGCWorkers = true
	loop, err := Run(RunSpec{Config: loopCfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	if plan.MinorGCs == 0 {
		t.Fatal("reduced cell ran no minor GCs; cannot exercise workers")
	}
	if plan.Kernel.BurstElisions == 0 {
		t.Error("plan workers recorded no burst elisions")
	}
	if plan.EventsInlined == 0 {
		t.Error("no events were batch-dispatched inline")
	}
	if plan.Kernel.BodyResumes >= loop.Kernel.BodyResumes {
		t.Errorf("plan workers did not reduce body resumes: plan=%d loop=%d",
			plan.Kernel.BodyResumes, loop.Kernel.BodyResumes)
	}

	// The two modes must simulate the same execution.
	if plan.TotalTime != loop.TotalTime || plan.GCTime != loop.GCTime {
		t.Errorf("timings diverged: plan total=%v gc=%v, loop total=%v gc=%v",
			plan.TotalTime, plan.GCTime, loop.TotalTime, loop.GCTime)
	}
	if plan.MinorGCs != loop.MinorGCs || plan.MajorGCs != loop.MajorGCs {
		t.Errorf("GC counts diverged: plan=%d/%d loop=%d/%d",
			plan.MinorGCs, plan.MajorGCs, loop.MinorGCs, loop.MajorGCs)
	}
	if plan.ItemsDone != loop.ItemsDone || plan.Heap != loop.Heap {
		t.Errorf("work diverged: plan items=%d heap=%+v, loop items=%d heap=%+v",
			plan.ItemsDone, plan.Heap, loop.ItemsDone, loop.Heap)
	}
	if plan.Steal.TotalAttempts() != loop.Steal.TotalAttempts() {
		t.Errorf("steal attempts diverged: plan=%d loop=%d",
			plan.Steal.TotalAttempts(), loop.Steal.TotalAttempts())
	}
}

// TestBlockingStepsStayOffTheBody bounds the body resumes of a reduced
// vanilla xalan cell by its thread and collection counts: with the
// termination offer, the monitor slow paths and the safepoint wait stepped
// from the compute plans, a body resumes to start and finish and for the
// VM thread's per-collection work — not per steal attempt, termination
// spin or lock handoff. xalan's application lock (SerialFrac) keeps the
// mutators contending throughout. (Under dynamic affinity each GC thread
// also resumes once per collection for the GC-wake hook.)
func TestBlockingStepsStayOffTheBody(t *testing.T) {
	p := workload.Xalan()
	p.TotalItems /= 8
	r, err := Run(RunSpec{Config: Config{Profile: p, Mutators: 16, Seed: 3}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gcs := r.MinorGCs + r.MajorGCs
	if gcs == 0 || r.Monitor.ParkEvents == 0 {
		t.Fatalf("reduced cell ran %d GCs with %d monitor parks; cannot exercise the blocking steps",
			gcs, r.Monitor.ParkEvents)
	}
	threads := r.Mutators + r.GCThreads + 1 // + the VM thread
	if limit := 4 * (threads + gcs); r.Kernel.BodyResumes > limit {
		t.Errorf("BodyResumes = %d, want <= %d = 4·(threads %d + collections %d); "+
			"steal attempts %d, monitor parks %d",
			r.Kernel.BodyResumes, limit, threads, gcs, r.Steal.TotalAttempts(), r.Monitor.ParkEvents)
	}
}
