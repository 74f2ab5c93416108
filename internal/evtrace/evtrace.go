// Package evtrace is the unified cross-layer event bus of the simulator.
//
// The paper's core findings are emergent interactions across three layers —
// GC task fetching, HotSpot monitor handoff, and CFS load balancing — so a
// phenomenon like Fig. 3's ownership bouncing or §3.3's thread stacking is
// only inspectable when every layer's events land on one timeline. Each
// layer (simkit, cfs, jmutex, taskq, pscavenge) emits typed records into a
// shared Tracer; on top of the bus sit a Chrome/Perfetto trace-event
// exporter (perfetto.go), a named-metric registry (metrics.go), and a
// lock-contention profiler (lockprof.go).
//
// Overhead contract: a nil *Tracer is a valid "tracing disabled" tracer —
// every method is a no-op — and instrumented hot paths guard their single
// Emit call behind a nil check, so disabled tracing costs one predictable
// branch and zero allocations (asserted by alloc tests here and by the
// simkit kernel's zero-alloc tests). Enabled tracing appends into
// per-layer ring buffers grown on demand up to their capacity: pooled
// Event records, no per-event allocation once a ring has reached its
// capacity, oldest records overwritten when a sink is full. Tracing never
// touches the simulation's RNG or event queue, so enabling it cannot
// perturb simulated behaviour: golden outputs are byte-identical with
// tracing on and off.
//
// This package intentionally imports nothing from the rest of the
// repository (timestamps are raw int64 nanoseconds, not simkit.Time) so
// that even the bottom layer, simkit, can emit into it without an import
// cycle.
package evtrace

import "sort"

// Layer identifies which simulation layer emitted an event.
type Layer uint8

const (
	// LayerSimkit is the discrete-event kernel (schedule/fire/cancel).
	LayerSimkit Layer = iota
	// LayerCFS is the OS scheduler model (dispatch, preempt, migrate,
	// wakeup, load balancing).
	LayerCFS
	// LayerJmutex is the HotSpot monitor model (acquire, handoff, bypass,
	// block/unblock).
	LayerJmutex
	// LayerTaskq is GC task fetching and work stealing (get_task, steal
	// attempts, termination spins).
	LayerTaskq
	// LayerGC is the Parallel Scavenge engine (collection and phase spans,
	// per-task spans).
	LayerGC

	numLayers = 5
)

func (l Layer) String() string {
	switch l {
	case LayerSimkit:
		return "simkit"
	case LayerCFS:
		return "cfs"
	case LayerJmutex:
		return "jmutex"
	case LayerTaskq:
		return "taskq"
	case LayerGC:
		return "pscavenge"
	}
	return "?"
}

// Layers lists every layer in emission order.
func Layers() []Layer {
	return []Layer{LayerSimkit, LayerCFS, LayerJmutex, LayerTaskq, LayerGC}
}

// Kind is the event type. Kinds are grouped by layer; kindMeta maps each to
// its layer, display name, and phase (span vs instant).
type Kind uint8

const (
	// --- simkit ---

	// KEvSchedule: an event was scheduled (Arg1 = target time).
	KEvSchedule Kind = iota
	// KEvFire: an event fired (At = fire time, Arg1 = pending after).
	KEvFire
	// KEvCancel: a pending event was cancelled (Arg1 = its target time).
	KEvCancel

	// --- cfs ---

	// KDispatch is a span: one contiguous stint of a thread on a core
	// (At = dispatch, Dur = stint length, Core, TID, Name = thread name,
	// Arg1 = the core's min-vruntime at deschedule).
	KDispatch
	// KPreempt: a slice expiry preempted the current thread.
	KPreempt
	// KMigrate: a thread moved between cores (Arg1 = from, Arg2 = to).
	KMigrate
	// KWakeup: a blocked thread was woken (Arg1 = target core,
	// Arg2 = C-state exit latency charged).
	KWakeup
	// KNewIdlePull: new-idle balancing pulled a thread (Core = puller,
	// Arg1 = source core).
	KNewIdlePull
	// KPeriodicPull: periodic balancing pulled a thread (Core = puller,
	// Arg1 = source core, Arg2 = domain level).
	KPeriodicPull
	// KRunqPush: a thread was enqueued on a core's runqueue
	// (Arg1 = runqueue length after the push, Arg2 = core load after).
	KRunqPush
	// KRunqPop: a thread left a core's runqueue (Arg1 = runqueue length
	// after removal, Arg2 = 0 for a dispatch pop, 1 for a migration
	// removal). A dispatch pop marks the start of the on-CPU stint whose
	// KDispatch span is emitted retrospectively at deschedule.
	KRunqPop

	// --- jmutex ---

	// KLockFast: acquisition through the CAS fast path (Name = lock,
	// Arg1 = queued waiters, Arg2 = 1 when the previous owner reacquired).
	KLockFast
	// KLockBypass: a fast-path acquisition jumped over queued waiters
	// (the "bypass of OnDeck" unfairness; Arg1 = waiters bypassed).
	KLockBypass
	// KLockHandoff: acquisition after queuing (OnDeck heir or FIFO
	// successor finally won; Arg1 = waiters still queued).
	KLockHandoff
	// KLockBlock: a contender parked on the lock (Arg1 = queued waiters).
	KLockBlock
	// KLockUnblock: the unlock chain woke a queued waiter (TID = wakee).
	KLockUnblock
	// KLockRelease: the owner released the lock (Arg1 = queued waiters).
	KLockRelease

	// --- taskq ---

	// KGetTask: a GC worker fetched a task from the GCTaskManager
	// (TID = worker, Arg1 = task kind, Arg2 = unique task id,
	// Name = task kind name).
	KGetTask
	// KStealOK: a steal attempt succeeded (TID = thief, Arg1 = victim).
	KStealOK
	// KStealFail: a steal attempt failed (TID = thief, Arg1 = victim or
	// -1 when the policy found no candidate).
	KStealFail
	// KTermOffer: a worker offered termination (Arg1 = offers so far).
	KTermOffer
	// KTermSpin: one spin/yield (Arg2=0) or sleep (Arg2=1) iteration
	// inside the termination protocol.
	KTermSpin
	// KTermDone: the termination protocol completed — the parallel phase
	// is over (Arg1 = cumulative deque pushes across the engine's queues,
	// Arg2 = cumulative pops + steals; equal iff every deque is empty).
	KTermDone

	// --- pscavenge ---

	// KGCSpan is a span covering one whole collection (Name = kind,
	// Arg1 = GC sequence number).
	KGCSpan
	// KGCPhase is a nested span for one of the three GC phases
	// (Name = "init" | "parallel" | "final-sync").
	KGCPhase
	// KGCTask is a span covering one executed GC task (TID = worker,
	// Arg1 = unique task id, Name = task kind name).
	KGCTask
	// KTaskEnqueue: the VM thread enqueued one GC task on the manager
	// (Arg1 = unique task id, Arg2 = task kind, Name = task kind name).
	KTaskEnqueue
	// KWorkerBind: a GC worker thread announced itself, binding the CFS
	// thread id to its engine identity (TID = cfs thread id, Arg1 = worker
	// index, Arg2 = engine instance, Name = manager monitor name). Emitted
	// once per worker at spawn; attribution layers use it to bridge the two
	// TID namespaces (taskq/GC events carry worker indexes, cfs/jmutex
	// events carry thread ids).
	KWorkerBind

	numKinds
)

type kindInfo struct {
	layer Layer
	name  string
	span  bool // true: complete span (uses Dur); false: instant
}

var kindMeta = [numKinds]kindInfo{
	KEvSchedule:   {LayerSimkit, "ev_schedule", false},
	KEvFire:       {LayerSimkit, "ev_fire", false},
	KEvCancel:     {LayerSimkit, "ev_cancel", false},
	KDispatch:     {LayerCFS, "run", true},
	KPreempt:      {LayerCFS, "preempt", false},
	KMigrate:      {LayerCFS, "migrate", false},
	KWakeup:       {LayerCFS, "wakeup", false},
	KNewIdlePull:  {LayerCFS, "newidle_pull", false},
	KPeriodicPull: {LayerCFS, "periodic_pull", false},
	KRunqPush:     {LayerCFS, "rq_push", false},
	KRunqPop:      {LayerCFS, "rq_pop", false},
	KLockFast:     {LayerJmutex, "lock_fast", false},
	KLockBypass:   {LayerJmutex, "lock_bypass", false},
	KLockHandoff:  {LayerJmutex, "lock_handoff", false},
	KLockBlock:    {LayerJmutex, "lock_block", false},
	KLockUnblock:  {LayerJmutex, "lock_unblock", false},
	KLockRelease:  {LayerJmutex, "lock_release", false},
	KGetTask:      {LayerTaskq, "get_task", false},
	KStealOK:      {LayerTaskq, "steal_ok", false},
	KStealFail:    {LayerTaskq, "steal_fail", false},
	KTermOffer:    {LayerTaskq, "term_offer", false},
	KTermSpin:     {LayerTaskq, "term_spin", false},
	KTermDone:     {LayerTaskq, "term_done", false},
	KGCSpan:       {LayerGC, "gc", true},
	KGCPhase:      {LayerGC, "gc_phase", true},
	KGCTask:       {LayerGC, "gc_task", true},
	KTaskEnqueue:  {LayerGC, "task_enqueue", false},
	KWorkerBind:   {LayerGC, "worker_bind", false},
}

// Layer returns the layer a kind belongs to.
func (k Kind) Layer() Layer { return kindMeta[k].layer }

// Name returns the kind's short display name.
func (k Kind) Name() string { return kindMeta[k].name }

// Span reports whether events of this kind carry a duration.
func (k Kind) Span() bool { return kindMeta[k].span }

// Event is one pooled trace record. Events are small values copied into a
// ring buffer; emitting one never allocates. At/Dur are virtual
// nanoseconds (At is the span start for span kinds). Core and TID are -1
// when not applicable; Name must be a preexisting string (a thread or lock
// name, or a static kind name) — hot paths must never format one.
type Event struct {
	At   int64
	Dur  int64
	Seq  uint64 // global emission order, assigned by Emit
	Arg1 int64
	Arg2 int64
	Kind Kind
	Core int32
	TID  int32
	Name string
}

// sink is one layer's ring buffer. cap is the ring's capacity, not its
// first allocation: the buffer starts at min(cap, initSinkSlots) records
// on the first emit to the layer and doubles (clamped to cap) each time it
// fills, so a short run pays only for the events it emits. Growth never
// discards a record, and the ring only wraps once it holds cap records;
// from then on it is reused forever, the oldest record overwritten (the
// tail of a run is what the Perfetto UI and the lock profiler want). The
// retained events and drop counts are therefore exactly those of a ring
// allocated at full cap.
type sink struct {
	buf   []Event
	next  int
	full  bool
	drops uint64
	cap   int
}

// initSinkSlots is the first allocation of a sink's ring (or its whole
// capacity, when that is smaller).
const initSinkSlots = 1024

func (s *sink) put(e Event) {
	if s.next == len(s.buf) { // only before the ring first wraps
		s.grow()
	}
	if s.full {
		s.drops++
	}
	s.buf[s.next] = e
	s.next++
	if s.next == s.cap {
		s.next, s.full = 0, true
	}
}

// grow allocates the first ring or doubles a filled one, up to cap. It is
// only called while the ring has not yet wrapped, so the retained records
// are buf[:next] in emission order and a plain copy keeps them.
func (s *sink) grow() {
	buf := make([]Event, min(s.cap, max(initSinkSlots, 2*len(s.buf))))
	copy(buf, s.buf)
	s.buf = buf
}

// events appends the sink's records in emission order to out.
func (s *sink) events(out []Event) []Event {
	if s.buf == nil {
		return out
	}
	if s.full {
		out = append(out, s.buf[s.next:]...)
	}
	return append(out, s.buf[:s.next]...)
}

func (s *sink) len() int {
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// DefaultSinkCap is the per-layer ring capacity used by New(0).
const DefaultSinkCap = 1 << 16

// Tracer is the event bus: one ring-buffer sink per layer plus a thread
// name registry. A nil *Tracer is valid and means "tracing disabled" —
// all methods are no-ops. A Tracer is not safe for concurrent use; like
// the simulator it serves, it is single-threaded by design (each
// simulation cell owns its own Tracer).
type Tracer struct {
	sinks [numLayers]sink
	seq   uint64
	names map[int32]string
	subs  []func(Event)
}

// New creates a tracer whose per-layer rings hold at most capPerSink
// records each (0 = DefaultSinkCap). capPerSink bounds the ring; it is not
// allocated up front. A layer's storage starts at min(capPerSink, 1024)
// records on its first emit and doubles as it fills, so a cell that emits
// a few thousand events never pays for a full DefaultSinkCap ring, and a
// ring that has reached capPerSink emits with zero allocations.
func New(capPerSink int) *Tracer {
	if capPerSink <= 0 {
		capPerSink = DefaultSinkCap
	}
	t := &Tracer{names: make(map[int32]string)}
	for i := range t.sinks {
		t.sinks[i].cap = capPerSink
	}
	return t
}

// Reset empties the tracer for another run: the sequence counter, every
// ring's retained events and drop count, the thread names and the
// subscribers are cleared, while each ring keeps its capacity and the
// storage it has grown. Afterwards the tracer behaves exactly like a fresh
// New with the same capacity, but emits without growing its rings again
// up to their previous size. Safe on a nil tracer (no-op).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.seq = 0
	for i := range t.sinks {
		s := &t.sinks[i]
		s.next, s.full, s.drops = 0, false, 0
	}
	clear(t.names)
	clear(t.subs)
	t.subs = t.subs[:0]
}

// Enabled reports whether the tracer records events (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Safe (and free) on a nil tracer. The event's
// Seq is assigned here; everything else is the caller's.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.seq++
	e.Seq = t.seq
	t.sinks[kindMeta[e.Kind].layer].put(e)
	for _, fn := range t.subs {
		fn(e)
	}
}

// Subscribe registers fn to receive every event at emission time, after
// Seq assignment and ring insertion. Unlike the ring sinks, subscribers
// see the complete stream even when old records are overwritten — this is
// what online consumers (the internal/check invariant checker) rely on.
// Subscribers must not emit; like the Tracer itself they are
// single-threaded. Safe on a nil tracer (no-op).
func (t *Tracer) Subscribe(fn func(Event)) {
	if t == nil || fn == nil {
		return
	}
	t.subs = append(t.subs, fn)
}

// RegisterThread associates a simulated thread id with its name, for the
// exporter's track labels and the lock profiler's reports. Safe on nil.
func (t *Tracer) RegisterThread(tid int32, name string) {
	if t == nil {
		return
	}
	t.names[tid] = name
}

// ThreadName returns the registered name for tid ("" when unknown).
func (t *Tracer) ThreadName(tid int32) string {
	if t == nil {
		return ""
	}
	return t.names[tid]
}

// Len returns the number of retained events across all sinks.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.sinks {
		n += t.sinks[i].len()
	}
	return n
}

// Drops returns how many records were overwritten per layer (ring full).
func (t *Tracer) Drops() map[Layer]uint64 {
	if t == nil {
		return nil
	}
	out := make(map[Layer]uint64)
	for i := range t.sinks {
		if d := t.sinks[i].drops; d > 0 {
			out[Layer(i)] = d
		}
	}
	return out
}

// LayerEvents returns one layer's retained events in emission order.
func (t *Tracer) LayerEvents(l Layer) []Event {
	if t == nil {
		return nil
	}
	return t.sinks[l].events(nil)
}

// Events returns every retained event merged across layers in global
// emission order (by Seq). Seq order equals (virtual time, emission)
// order because the simulation is single-threaded.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	for i := range t.sinks {
		out = t.sinks[i].events(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
