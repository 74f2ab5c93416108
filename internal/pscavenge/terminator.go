package pscavenge

import (
	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/simkit"
)

// terminator implements the distributed termination protocol of §2.3: a GC
// thread that has failed enough consecutive steal attempts offers
// termination by incrementing a shared counter; while offered it
// periodically peeks for new stealable work and returns to stealing if any
// appears. The parallel phase ends when all participants have offered.
//
// The fast variant is the paper's FastParallelTaskTerminator (§4.2,
// Algorithm 2): the failed-attempts threshold adapts to the number of
// still-active (not-offered) threads, 2·N_live instead of 2·N.
type terminator struct {
	g           *Engine
	total       int
	offered     int
	done        bool
	fast        bool
	completedAt simkit.Time
	// localThreads, when > 0, replaces the threshold base with the
	// thief's node-local thread count (Gidra's NUMA termination).
	localThreads []int
}

// threshold returns the consecutive-failure count after which worker w
// offers termination. The base is N (all GC threads, §2.3); the fast
// terminator (§4.2) shrinks it to N_live (threads that have not offered),
// and Gidra's NUMA termination shrinks it to N_local (threads on w's
// node). When both are enabled they compose as 2·min(N_live, N_local) —
// each is an upper bound on the workers w could still steal from, so the
// tighter one wins; neither silently overrides the other.
func (t *terminator) threshold(w int) int {
	base := t.total
	if t.fast {
		if live := t.total - t.offered; live < base {
			base = live
		}
	}
	if t.localThreads != nil && t.localThreads[w] < base {
		base = t.localThreads[w]
	}
	if base < 1 {
		base = 1
	}
	return 2 * base
}

// peek reports whether any local queue has stealable work.
func (t *terminator) peek() bool {
	for i := range t.g.queues {
		if t.g.queues[i].Len() > 0 {
			return true
		}
	}
	return false
}

// offer enters the termination protocol for worker w. It returns true when
// the parallel phase is over, false when the worker should resume stealing
// (work reappeared). Time spent inside is the Fig. 6 "termination" share.
// It runs the offering steps in the body; plan-driven workers step the same
// offering from their compute plan.
func (t *terminator) offer(e *cfs.Env, w int) bool {
	var o offering
	o.begin(t, w)
	for e.Do(o.step(e.T)) {
	}
	return o.finished
}

// offering is one worker's termination offer written as steps (cfs.Op):
// offer, then spin and yield, then sleep, peeking for stealable work before
// each wait, until the phase completes or work reappears.
type offering struct {
	t        *terminator
	w        int
	spun     bool // the spin's compute is done; yield next
	spins    int  // spin-and-yield rounds so far; -1 until the offer is made
	finished bool // the outcome once step returns cfs.OpDone
}

func (o *offering) begin(t *terminator, w int) { *o = offering{t: t, w: w, spins: -1} }

// step advances the offer to its next scheduling operation, or returns
// cfs.OpDone with o.finished set.
func (o *offering) step(th *cfs.Thread) (cfs.Op, simkit.Time) {
	t := o.t
	now := t.g.K.Sim.Now()
	if o.spun {
		o.spun = false
		o.spins++
		return cfs.OpYield, 0
	}
	if o.spins < 0 {
		o.spins = 0
		t.offered++
		if t.g.etr != nil {
			t.g.etr.Emit(evtrace.Event{Kind: evtrace.KTermOffer, At: int64(now),
				Core: int32(th.Core()), TID: int32(o.w),
				Arg1: int64(t.offered), Arg2: int64(t.total)})
		}
		if t.offered >= t.total {
			// Last offerer: re-check the queues before declaring the phase
			// over. Work pushed between this worker's final failed steal
			// and its offer (by a worker that has since offered too) would
			// otherwise be lost — declared collected without being
			// processed.
			if t.peek() {
				t.offered--
				return cfs.OpDone, 0
			}
			t.complete()
			o.finished = true
			return cfs.OpDone, 0
		}
	}
	if t.done {
		o.finished = true
		return cfs.OpDone, 0
	}
	if t.peek() {
		t.offered--
		return cfs.OpDone, 0
	}
	if t.g.etr != nil {
		// Arg2 tells spinning (0) from sleeping (1) waits.
		mode := int64(0)
		if o.spins >= 4 {
			mode = 1
		}
		t.g.etr.Emit(evtrace.Event{Kind: evtrace.KTermSpin, At: int64(now),
			Core: int32(th.Core()), TID: int32(o.w), Arg1: int64(o.spins), Arg2: mode})
	}
	if o.spins < 4 {
		o.spun = true
		return cfs.OpCompute, t.g.Costs.TermSpin
	}
	return cfs.OpSleep, t.g.Costs.TermSleep
}

// complete ends the parallel phase and wakes the VM thread. The KTermDone
// event carries the engine-wide cumulative deque push and pop+steal
// counts; they are equal exactly when every local queue is empty, which is
// the conservation law termination rests on (checked by internal/check).
func (t *terminator) complete() {
	t.done = true
	t.completedAt = t.g.K.Sim.Now()
	if t.g.etr != nil {
		var pushes, pops int64
		for i := range t.g.queues {
			q := &t.g.queues[i]
			pushes += int64(q.Pushes)
			pops += int64(q.Pops + q.Steals)
		}
		// Name carries the engine's manager-monitor name so a multi-JVM
		// bus can attribute each termination to its engine.
		t.g.etr.Emit(evtrace.Event{Kind: evtrace.KTermDone, At: int64(t.completedAt),
			Core: -1, TID: -1, Arg1: pushes, Arg2: pops, Name: t.g.mgr.mon.Name})
	}
	if t.g.vmThread != nil {
		t.g.K.Unpark(t.g.vmThread)
	}
}

// barrier is the simple completion counter used by phases without stealing
// (full-GC compaction): the last finished task wakes the VM thread.
type barrier struct {
	g         *Engine
	remaining int
	start     simkit.Time
}

func (b *barrier) taskDone() {
	b.remaining--
	if b.remaining == 0 && b.g.vmThread != nil {
		b.g.K.Unpark(b.g.vmThread)
	}
}
