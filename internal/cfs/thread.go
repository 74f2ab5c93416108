package cfs

import (
	"math/rand"

	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// State is a simulated thread's scheduling state.
type State int

const (
	// StateRunnable means the thread is on a runqueue waiting for CPU.
	StateRunnable State = iota
	// StateRunning means the thread is current on some core.
	StateRunning
	// StateBlocked means the thread is parked or sleeping.
	StateBlocked
	// StateDone means the thread's body returned.
	StateDone
)

func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	}
	return "?"
}

// request is what a thread body yields to the kernel. It is a small value
// (not an interface) so that yielding never allocates: the old interface
// encoding boxed every compute request on the heap, one allocation per
// scheduling point.
//
// A compute request may carry a plan: n > 1 asks for n back-to-back slices
// of d nanoseconds each, and n < 0 for an endless supply of them. The
// kernel services the follow-on slices from the driver side — same timer
// events, same accounting, same preemption — without resuming the body
// between slices (see Kernel.onTimer), so a body that would yield N
// identical computes in a row pays one coroutine switch instead of N.
type request struct {
	d    simkit.Time // compute or sleep duration
	n    int32       // compute slice count: 0/1 single, >1 plan, <0 endless
	fn   PlanFn      // callback plan: produces follow-on slices driver-side
	kind Op
}

// Op is one scheduling operation: what a body requests through Compute,
// YieldCPU, Sleep and Park, what a compute plan returns for its next step
// (PlanFn), and what a blocking protocol written as steps returns for its
// next wait, so one transcription runs in a body (Env.Do) and in a plan.
type Op uint8

const (
	OpDone    Op = iota // the plan or protocol has finished; nothing to perform
	OpCompute           // consume d of CPU work
	OpSleep             // sleep for d
	OpPark              // park until Kernel.Unpark
	OpYield             // sched_yield
	opMigrate           // leave a core SetAffinity no longer allows (body only)
)

// Thread is a simulated OS thread.
type Thread struct {
	ID   int
	Name string

	k    *Kernel
	coro *simkit.Coro[request]

	state State
	core  ostopo.CoreID // current core, or residence core while blocked
	seq   uint64        // runqueue tiebreak

	vruntime  simkit.Time
	remaining simkit.Time // work left in the current compute slice

	// Compute-plan state: when the current slice completes and planLeft is
	// non-zero, the kernel starts the next planSlice-long slice itself
	// instead of resuming the body (planLeft < 0 means endless). Preemption
	// and migration leave the plan intact; it resumes with the thread.
	// planFn is the callback form (ComputePlan): consulted for the next
	// slice each time one completes, until it reports the plan done.
	planSlice simkit.Time
	planLeft  int32
	planFn    PlanFn

	dispatchedAt simkit.Time // when the current stint on CPU began
	lastAccount  simkit.Time // last time CPU accounting ran for this thread
	lastRanAt    simkit.Time // last time it was descheduled (cache-hot test)

	affinity    []bool // nil = any core; else allowed mask by CoreID
	permit      bool   // LockSupport-style unpark permit
	parked      bool   // blocked via Park (vs Sleep)
	wakePending bool   // a wake event is in flight
	sleepEv     simkit.Event

	// Prebuilt event callbacks, allocated once at Spawn so the hot
	// sleep/wake/migrate paths never build closures. Each is safe to share
	// across uses because at most one instance is ever in flight per
	// thread: sleepFn via sleepEv, enqFn via the wakePending flag (wake
	// path) or the thread being off-queue (spawn and migrate paths).
	sleepFn   func()
	enqFn     func()
	enqTarget ostopo.CoreID // pending enqFn destination
	enqWake   bool          // pending enqFn is a wakeup

	// Statistics.
	CPUTime    simkit.Time
	Wakeups    int
	Migrations int
	DeepWakes  int
}

// State returns the thread's current scheduling state.
func (t *Thread) State() State { return t.state }

// Core returns the thread's current (or, while blocked, last) core.
func (t *Thread) Core() ostopo.CoreID { return t.core }

// allowed reports whether the thread may run on core c.
func (t *Thread) allowed(c ostopo.CoreID) bool {
	return t.affinity == nil || t.affinity[c]
}

// Env is the interface a thread body uses to interact with the simulated
// kernel. It is only valid inside the body it was created for.
type Env struct {
	T     *Thread
	yield func(request)
}

// Now returns the current virtual time.
func (e *Env) Now() simkit.Time { return e.T.k.Sim.Now() }

// Rand returns the simulation RNG.
func (e *Env) Rand() *rand.Rand { return e.T.k.Sim.Rand() }

// Kernel returns the kernel this thread runs on.
func (e *Env) Kernel() *Kernel { return e.T.k }

// Core returns the core the thread is currently running on.
func (e *Env) Core() ostopo.CoreID { return e.T.core }

// Compute consumes d nanoseconds of CPU work. The thread may be preempted
// and migrated while computing; Compute returns once the work is done.
func (e *Env) Compute(d simkit.Time) {
	if d <= 0 {
		return
	}
	e.yield(request{d: d, kind: OpCompute})
}

// ComputeN consumes n back-to-back slices of d nanoseconds of CPU work
// each. It is observably identical to calling Compute(d) n times in a row
// — the same timer events fire, the same vruntime is charged, preemption
// interleaves at the same slice boundaries — but the kernel services the
// follow-on slices itself, so the body pays one coroutine switch for the
// whole plan instead of one per slice. Use it when nothing needs to happen
// between the slices; a body that must observe state between slices (check
// a flag, take a lock) still calls Compute per slice.
func (e *Env) ComputeN(d simkit.Time, n int) {
	if d <= 0 || n <= 0 {
		return
	}
	e.yield(request{d: d, n: int32(n), kind: OpCompute})
}

// ComputeForever consumes d-nanosecond slices of CPU work until the end of
// the simulation; it never returns. It replaces the busy-loop idiom
// `for { e.Compute(d) }` with a single yield whose endless plan the kernel
// services driver-side — same slices, same preemption, no per-slice
// coroutine switch.
func (e *Env) ComputeForever(d simkit.Time) {
	if d <= 0 {
		panic("cfs: ComputeForever needs a positive slice")
	}
	e.yield(request{d: d, n: -1, kind: OpCompute})
	panic("cfs: ComputeForever resumed") // unreachable: only Stop unwinds it
}

// PlanFn produces the steps of a callback compute plan. Each call returns
// the plan's next operation: (OpCompute, d) for a slice of d, OpYield,
// (OpSleep, d) or OpPark to block, or OpDone when the plan is finished. The
// kernel calls it from the driver side (inside the completion timer of the
// previous slice), so it runs at exactly the virtual time the body would
// have resumed at — it may therefore read and write simulation state (draw
// from the Sim RNG, take fast-path locks, allocate) exactly as the body
// would. A non-positive compute or sleep is skipped and the plan is
// consulted again, mirroring how Compute and Sleep treat d <= 0 as a no-op.
//
// The kernel performs a yield, sleep or park exactly as it performs the
// body's YieldCPU, Sleep or Park, and keeps the plan attached: the plan is
// consulted again at the instant the body call would have returned — at
// once when a park consumes a stored permit or a yield finds nothing else
// to run, otherwise when the thread is next dispatched. Anything else that
// must run in the body (SetAffinity, returning from it) ends the plan with
// OpDone.
type PlanFn func() (Op, simkit.Time)

// ComputePlan runs a callback compute plan: fn is consulted for each step
// in turn, and the kernel services the follow-on steps driver-side — the
// same timer events, vruntime accounting and preemption as the equivalent
// chain of Compute, YieldCPU, Sleep and Park calls, without resuming the
// body between them. It returns once fn reports the plan done. Use it when
// the work *between* slices is simple enough to run from the driver (bump a
// counter, check a flag, try an allocation); see ComputeN for the
// fixed-shape variant. A yield, sleep or park fn asks for on this first,
// body-side consultation is performed in the body.
func (e *Env) ComputePlan(fn PlanFn) {
	for {
		op, d := fn()
		switch {
		case op == OpDone:
			return
		case op == OpCompute && d > 0:
			e.yield(request{d: d, fn: fn, kind: OpCompute})
			return
		case op != OpCompute:
			e.Do(op, d)
		}
	}
}

// Do performs op in the thread's body and reports whether there was one to
// perform, so `for e.Do(p.step()) {}` runs a step protocol to completion.
func (e *Env) Do(op Op, d simkit.Time) bool {
	switch op {
	case OpCompute:
		e.Compute(d)
	case OpYield:
		e.YieldCPU()
	case OpSleep:
		e.Sleep(d)
	case OpPark:
		e.Park()
	default:
		return false
	}
	return true
}

// Sleep blocks the thread for d nanoseconds of virtual time.
func (e *Env) Sleep(d simkit.Time) {
	if d <= 0 {
		return
	}
	e.yield(request{d: d, kind: OpSleep})
}

// Park blocks the thread until another thread calls Kernel.Unpark on it.
// Like java.util.concurrent.LockSupport, an Unpark that arrives while the
// thread is not parked stores a permit that makes the next Park return
// immediately.
func (e *Env) Park() {
	if e.T.permit {
		e.T.permit = false
		return
	}
	e.yield(request{kind: OpPark})
}

// YieldCPU gives up the CPU (sched_yield). If other threads are runnable on
// this core, one of them is dispatched.
func (e *Env) YieldCPU() { e.yield(request{kind: OpYield}) }

// SetAffinity binds the thread to the given cores (empty clears the mask,
// allowing all cores). If the thread is currently on a disallowed core it
// migrates immediately.
func (e *Env) SetAffinity(cores ...ostopo.CoreID) {
	t := e.T
	if len(cores) == 0 {
		t.affinity = nil
		return
	}
	mask := make([]bool, t.k.Topo.NumCPUs())
	ok := false
	for _, c := range cores {
		if int(c) >= 0 && int(c) < len(mask) {
			mask[c] = true
			ok = true
		}
	}
	if !ok {
		return
	}
	t.affinity = mask
	if !t.allowed(t.core) {
		e.yield(request{kind: opMigrate})
	}
}
