package pscavenge

import (
	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/heap"
	"repro/internal/jmutex"
	"repro/internal/simkit"
)

// This file runs the GC worker bodies as driver-serviced compute plans
// (cfs.Env.ComputePlan): the get_task fast path, per-object scavenge/mark
// tracing, the steal attempt loop, task bookkeeping, and every blocking
// step of the §2.3/§2.4 protocols all advance inside the kernel's
// completion timer. The blocking steps — contended monitor entry, the
// queue-empty wait on the WaitSet between GCs, and the termination offer's
// spins, yields and sleeps — are stepped through jmutex.Contention and
// offering, whose operations the plan performs as cfs plan requests (park,
// yield, sleep). A worker's coroutine body is resumed only for:
//
//   - the dynamic-affinity GC-wake hook (it may SetAffinity and migrate);
//   - shutdown (the body must return).
//
// The state machine replays the legacy loop's operations at exactly the
// instants the loop performed them between its scheduling calls, so the
// event stream, RNG draws, reports, and trace emissions are byte-identical
// to Options.LoopWorkers (asserted by the loop-vs-plan identity test).

// workerPC is the plan program counter: where the worker resumes when the
// current slice completes.
type workerPC uint8

const (
	// get_task: lock, queue inspection, unlock.
	wpcLock workerPC = iota
	wpcTryLock
	wpcContend // contended entry or WaitSet wait, stepping ws.cont
	wpcLocked
	wpcWaitPark
	wpcShutdown
	wpcDequeued
	wpcUnlocked
	// task dispatch and completion.
	wpcExecStart
	wpcTaskDone
	// root scanning (ScavengeRoots / ThreadRoots / MarkRoots).
	wpcRootScan
	wpcRootVisit
	// remembered-set scanning (OldToYoungRoots).
	wpcOldToYoung
	wpcOldToYoungVisit
	// local-queue drain (shared by root tasks and successful steals).
	wpcDrainPop
	wpcStepRefs
	wpcStepRefVisit
	wpcFlush
	// steal loop.
	wpcStealChoose
	wpcStealResult
	wpcStealDrained
	wpcStealFlushed
	wpcOffer // termination offer, stepping ws.offer
)

// workerAction tells the body why the plan stopped.
type workerAction uint8

const (
	wactGCWake workerAction = iota
	wactShutdown
)

// workerState is one GC worker's plan state machine.
type workerState struct {
	g    *Engine
	w    int
	th   *cfs.Thread
	plan cfs.PlanFn // bound step method, allocated once at init

	pc     workerPC
	action workerAction

	task      *GCTask
	taskStart simkit.Time

	cont  jmutex.Contention // blocking manager-monitor acquisition
	offer offering          // termination offer in progress

	// Chunked tracing accumulator (the plan-resident cfs.Batcher).
	acc simkit.Time

	// Root / reference iteration cursors.
	rootIdx int
	refIdx  int
	pending heap.ObjID // visit deferred across a chunk-flush slice
	curID   heap.ObjID // object whose reference list is being scanned
	mark    bool       // marking (full GC) vs scavenging semantics

	afterDrain workerPC // where wpcDrainPop goes when the queue is empty

	// Steal-loop state.
	fails    int
	victim   int
	segStart simkit.Time
	offerAt  simkit.Time
}

func (ws *workerState) init(g *Engine, w int, e *cfs.Env) {
	ws.g = g
	ws.w = w
	ws.th = e.T
	ws.pc = wpcLock
	ws.plan = ws.step
}

// workerPlan is the plan-driven worker body: it re-enters the state machine
// after each GC-wake hook until the manager shuts down.
func (g *Engine) workerPlan(e *cfs.Env, w int) {
	ws := &g.wstates[w]
	ws.init(g, w, e)
	for {
		e.ComputePlan(ws.plan)
		if ws.action == wactShutdown {
			return
		}
		g.Opt.OnGCWake(e, w)
		ws.pc = wpcExecStart
	}
}

// finishOffer accounts a finished termination offer and routes the plan to
// the right continuation, replicating the tail of the legacy runSteal
// iteration.
func (ws *workerState) finishOffer() {
	t := ws.task
	now := ws.g.K.Sim.Now()
	// A straggler may observe completion only after the pause has ended (it
	// wakes among resumed mutators); clamp its share of the termination
	// phase to the pause itself.
	end := now
	if t.term.done && t.term.completedAt > ws.offerAt && t.term.completedAt < end {
		end = t.term.completedAt
	}
	t.rep.TerminationTime += end - ws.offerAt
	ws.segStart = now
	if ws.offer.finished {
		ws.pc = wpcTaskDone
		return
	}
	ws.fails = 0
	ws.pc = wpcStealChoose
}

// step is the worker's cfs.PlanFn. Each call performs the work the legacy
// loop did between two scheduling points and returns the next operation; a
// zero-length compute consults it again at once, and cfs.OpDone hands
// control back to the body with ws.action set.
func (ws *workerState) step() (cfs.Op, simkit.Time) {
	g := ws.g
	m := g.mgr
	switch ws.pc {
	case wpcLock:
		ws.pc = wpcTryLock
		return cfs.OpCompute, m.mon.LockBegin(ws.th)
	case wpcTryLock:
		if !m.mon.TryLockFast(ws.th) {
			ws.cont = m.mon.Contended(ws.th)
			ws.pc = wpcContend
			return cfs.OpCompute, 0
		}
		ws.pc = wpcLocked
		return cfs.OpCompute, 0
	case wpcContend:
		if op, d := ws.cont.Step(); op != cfs.OpDone {
			return op, d
		}
		ws.pc = wpcLocked
		return cfs.OpCompute, 0
	case wpcLocked:
		if len(m.queue) == 0 {
			if m.closed {
				ws.pc = wpcShutdown
				return cfs.OpCompute, m.mon.UnlockBegin(ws.th)
			}
			ws.pc = wpcWaitPark
			return cfs.OpCompute, m.mon.WaitBegin(ws.th)
		}
		ws.task = m.dequeue(ws.w)
		ws.pc = wpcDequeued
		return cfs.OpCompute, g.Costs.TaskDequeue
	case wpcWaitPark:
		ws.cont = m.mon.Waiting(ws.th)
		ws.pc = wpcContend
		return cfs.OpCompute, 0
	case wpcShutdown:
		m.mon.UnlockFinish(ws.th)
		ws.action = wactShutdown
		return cfs.OpDone, 0
	case wpcDequeued:
		ws.pc = wpcUnlocked
		return cfs.OpCompute, m.mon.UnlockBegin(ws.th)
	case wpcUnlocked:
		m.mon.UnlockFinish(ws.th)
		task := ws.task
		if g.etr != nil {
			g.etr.Emit(evtrace.Event{Kind: evtrace.KGetTask, At: int64(g.K.Sim.Now()),
				Core: int32(ws.th.Core()), TID: int32(ws.w), Name: task.Kind.String(),
				Arg1: int64(task.Kind), Arg2: task.id})
		}
		if task.rep != nil {
			task.rep.recordDispatch(ws.w, int(ws.th.Core()), task.Kind)
			if task.rep.Seq != g.seenEpoch[ws.w] {
				g.seenEpoch[ws.w] = task.rep.Seq
				if g.Opt.OnGCWake != nil {
					ws.action = wactGCWake
					return cfs.OpDone, 0
				}
			}
		}
		ws.pc = wpcExecStart
		return cfs.OpCompute, 0
	case wpcExecStart:
		t := ws.task
		ws.taskStart = g.K.Sim.Now()
		ws.acc = 0
		ws.rootIdx, ws.refIdx = 0, 0
		switch t.Kind {
		case TaskOldToYoungRoots:
			ws.mark = false
			ws.afterDrain = wpcFlush
			ws.pc = wpcOldToYoung
		case TaskScavengeRoots, TaskThreadRoots:
			ws.mark = false
			ws.afterDrain = wpcFlush
			ws.pc = wpcRootScan
		case TaskMarkRoots:
			ws.mark = true
			ws.afterDrain = wpcFlush
			ws.pc = wpcRootScan
		case TaskSteal, TaskMarkSteal:
			ws.mark = t.Kind == TaskMarkSteal
			ws.fails = 0
			ws.segStart = g.K.Sim.Now()
			ws.pc = wpcStealChoose
		case TaskCompact:
			ws.pc = wpcTaskDone
			return cfs.OpCompute, t.Work
		}
		return cfs.OpCompute, 0
	case wpcTaskDone:
		t := ws.task
		now := g.K.Sim.Now()
		if t.Kind != TaskSteal && t.Kind != TaskMarkSteal {
			t.rep.RootTaskTime += now - ws.taskStart
		}
		if t.Kind == TaskCompact {
			g.bar.taskDone()
		}
		if g.etr != nil {
			g.etr.Emit(evtrace.Event{Kind: evtrace.KGCTask,
				At: int64(ws.taskStart), Dur: int64(now - ws.taskStart),
				Core: int32(ws.th.Core()), TID: int32(ws.w), Name: t.Kind.String(),
				Arg1: t.id})
		}
		ws.task = nil
		ws.pc = wpcLock
		return cfs.OpCompute, 0

	case wpcRootScan:
		t := ws.task
		for ws.rootIdx < len(t.Roots) {
			id := t.Roots[ws.rootIdx]
			ws.rootIdx++
			if id == 0 {
				continue
			}
			if d, flush := ws.charge(g.Costs.RefScan); flush {
				ws.pending = id
				ws.pc = wpcRootVisit
				return cfs.OpCompute, d
			}
			ws.visit(id)
		}
		ws.pc = wpcDrainPop
		return cfs.OpCompute, 0
	case wpcRootVisit:
		ws.visit(ws.pending)
		ws.pc = wpcRootScan
		return cfs.OpCompute, 0

	case wpcOldToYoung:
		t := ws.task
		for ws.rootIdx < len(t.Roots) {
			refs := g.H.Refs(t.Roots[ws.rootIdx])
			for ws.refIdx < len(refs) {
				r := refs[ws.refIdx]
				ws.refIdx++
				if r == 0 {
					continue
				}
				if d, flush := ws.charge(g.Costs.RefScan); flush {
					ws.pending = r
					ws.pc = wpcOldToYoungVisit
					return cfs.OpCompute, d
				}
				ws.visit(r)
			}
			ws.refIdx = 0
			ws.rootIdx++
		}
		ws.pc = wpcDrainPop
		return cfs.OpCompute, 0
	case wpcOldToYoungVisit:
		ws.visit(ws.pending)
		ws.pc = wpcOldToYoung
		return cfs.OpCompute, 0

	case wpcDrainPop:
		id, ok := g.queues[ws.w].PopBottom()
		if !ok {
			ws.pc = ws.afterDrain
			return cfs.OpCompute, 0
		}
		return ws.stepObject(id)
	case wpcStepRefs:
		refs := g.H.Refs(ws.curID)
		for ws.refIdx < len(refs) {
			r := refs[ws.refIdx]
			ws.refIdx++
			if r == 0 {
				continue
			}
			if d, flush := ws.charge(g.Costs.RefScan); flush {
				ws.pending = r
				ws.pc = wpcStepRefVisit
				return cfs.OpCompute, d
			}
			ws.visit(r)
		}
		ws.pc = wpcDrainPop
		return cfs.OpCompute, 0
	case wpcStepRefVisit:
		ws.visit(ws.pending)
		ws.pc = wpcStepRefs
		return cfs.OpCompute, 0
	case wpcFlush:
		ws.pc = wpcTaskDone
		return cfs.OpCompute, ws.flush()

	case wpcStealChoose:
		victim := g.policy.ChooseVictim(ws.w, g.pool, g.K.Sim.Rand())
		g.Steal.Attempts[ws.w]++
		ws.task.rep.StealAttempts++
		ws.victim = victim
		ws.pc = wpcStealResult
		return cfs.OpCompute, g.Costs.StealAttempt
	case wpcStealResult:
		t := ws.task
		if ws.victim >= 0 {
			if id, ok := g.queues[ws.victim].PopTop(); ok {
				g.policy.RecordResult(ws.w, ws.victim, true)
				t.rep.StolenTasks++
				g.queues[ws.w].PushBottom(id)
				ws.acc = 0 // fresh tracing batch for the stolen subgraph
				ws.afterDrain = wpcStealDrained
				ws.pc = wpcDrainPop
				return cfs.OpCompute, 0
			}
		}
		g.policy.RecordResult(ws.w, ws.victim, false)
		g.Steal.Failures[ws.w]++
		t.rep.StealFailures++
		ws.fails++
		if ws.fails >= t.term.threshold(ws.w) || g.policy.AbortOnFailure() {
			now := g.K.Sim.Now()
			t.rep.StealWorkTime += now - ws.segStart
			ws.offerAt = now
			ws.offer.begin(t.term, ws.w)
			ws.pc = wpcOffer
			return cfs.OpCompute, 0
		}
		ws.pc = wpcStealChoose
		return cfs.OpCompute, 0
	case wpcStealDrained:
		ws.pc = wpcStealFlushed
		return cfs.OpCompute, ws.flush()
	case wpcStealFlushed:
		ws.fails = 0
		ws.pc = wpcStealChoose
		return cfs.OpCompute, 0
	case wpcOffer:
		if op, d := ws.offer.step(ws.th); op != cfs.OpDone {
			return op, d
		}
		ws.finishOffer()
		return cfs.OpCompute, 0
	}
	panic("pscavenge: invalid worker plan state")
}

// stepObject performs the copy/mark half of one drain step (the legacy
// scavengeStep/markStep up to the reference loop) and routes to the
// reference scan, charging the object cost into the tracing batch.
func (ws *workerState) stepObject(id heap.ObjID) (cfs.Op, simkit.Time) {
	g := ws.g
	h := g.H
	rep := ws.task.rep
	var cost simkit.Time
	if ws.mark {
		size, first := h.Mark(id)
		if !first {
			return cfs.OpCompute, 0 // stay in wpcDrainPop
		}
		rep.CopiedObjects++
		rep.CopiedBytes += int64(size)
		cost = g.Costs.MarkObj
		if g.Opt.NUMA != nil {
			cost = g.numaAdjust(ws.th.Core(), id, cost, rep, false)
		}
	} else {
		size, promoted, first := h.CopyYoung(id)
		if !first {
			return cfs.OpCompute, 0
		}
		rep.CopiedObjects++
		rep.CopiedBytes += int64(size)
		if promoted {
			rep.PromotedObjects++
		}
		cost = g.Costs.ObjCopyBase + simkit.Time(size)*g.Costs.CopyPerByte
		if g.Opt.NUMA != nil {
			cost = g.numaAdjust(ws.th.Core(), id, cost, rep, true)
		}
	}
	ws.curID = id
	ws.refIdx = 0
	ws.pc = wpcStepRefs
	if d, flush := ws.charge(cost); flush {
		return cfs.OpCompute, d
	}
	return cfs.OpCompute, 0
}

// charge accrues d of tracing work; when the accumulator reaches ChunkWork
// it returns the slice to submit (the Batcher.Charge threshold, verbatim).
func (ws *workerState) charge(d simkit.Time) (simkit.Time, bool) {
	ws.acc += d
	if ws.acc >= ws.g.Costs.ChunkWork {
		d = ws.acc
		ws.acc = 0
		return d, true
	}
	return 0, false
}

// flush returns the remaining accrued tracing work (Batcher.Flush).
func (ws *workerState) flush() simkit.Time {
	d := ws.acc
	ws.acc = 0
	return d
}

// visit applies the trace-child filter and pushes survivors on the worker's
// local queue: marking visits every unvisited child, scavenging only
// unvisited young ones.
func (ws *workerState) visit(r heap.ObjID) {
	h := ws.g.H
	if ws.mark {
		if !h.Visited(r) {
			ws.g.queues[ws.w].PushBottom(r)
		}
	} else if !h.Visited(r) && isYoung(h.SpaceOf(r)) {
		ws.g.queues[ws.w].PushBottom(r)
	}
}
