// Package objgraph generates the object graphs the collector traces. Each
// benchmark profile parameterizes a mutator-side allocation model built on
// the weak generational hypothesis: mutators allocate small clusters
// (a head object plus a shallow tree of children), keep a bounded window of
// them reachable from stack roots, retain a fraction longer-term, and
// attach some retained data to old-generation anchors (exercising the write
// barrier and the remembered set).
//
// The graphs are synthetic, but the collector's work over them is real
// tracing, copying, aging and promotion over a real generational heap.
package objgraph

import (
	"fmt"
	"math/rand"

	"repro/internal/heap"
)

// Params describe one benchmark's allocation behaviour. All sizes are model
// bytes (see DESIGN.md §6 for the scale model).
type Params struct {
	// MeanObjectSize is the average object size; individual sizes are
	// uniform in [Mean/2, 3*Mean/2).
	MeanObjectSize int32
	// ClusterFanout is the number of children allocated under each cluster
	// head (the fine-grained-task fan-out the scavenger sees).
	ClusterFanout int
	// StackWindow bounds the transient stack-root window; older cluster
	// heads are dropped (becoming garbage unless retained).
	StackWindow int
	// RetainProb is the probability a cluster head is moved to the
	// mutator's retained set (medium lifetime) when it leaves the window.
	RetainProb float64
	// RetainWindow bounds the retained set; evicted heads become garbage
	// unless tenured already.
	RetainWindow int
	// OldAttachProb is the probability a retained head is linked from the
	// mutator's old-generation anchor (old→young edge, remembered set).
	OldAttachProb float64
	// AnchorWindow bounds the anchor's reference count; when full, a new
	// attachment replaces a random existing one (the displaced subtree
	// becomes tenured garbage for the next major GC). 0 = unbounded.
	AnchorWindow int
	// CrossRefProb is the probability a new cluster references another
	// live cluster head (graph, not forest).
	CrossRefProb float64
}

// Validate rejects nonsensical parameters.
func (p Params) Validate() error {
	if p.MeanObjectSize < 2 {
		return fmt.Errorf("objgraph: MeanObjectSize must be >= 2, got %d", p.MeanObjectSize)
	}
	if p.ClusterFanout < 0 || p.StackWindow < 1 || p.RetainWindow < 0 || p.AnchorWindow < 0 {
		return fmt.Errorf("objgraph: invalid windows %+v", p)
	}
	if bad(p.RetainProb) || bad(p.OldAttachProb) || bad(p.CrossRefProb) {
		return fmt.Errorf("objgraph: probabilities must be in [0,1]: %+v", p)
	}
	return nil
}

func bad(p float64) bool { return p < 0 || p > 1 }

// DefaultParams returns a generic mid-weight profile.
func DefaultParams() Params {
	return Params{
		MeanObjectSize: 256,
		ClusterFanout:  6,
		StackWindow:    24,
		RetainProb:     0.12,
		RetainWindow:   64,
		OldAttachProb:  0.15,
		AnchorWindow:   48,
		CrossRefProb:   0.2,
	}
}

// Mutator is one mutator thread's slice of the object graph: its transient
// stack roots, its retained structures, and its old-generation anchor.
//
// The stack and retained windows are FIFO ring buffers: the slice fills to
// the window size once and then pushes overwrite the oldest slot in place.
// The old shift-down representation made every steady-state push a memmove
// of the whole window — the single hottest mutator-side operation in the
// Fig10 profile. Logical (oldest-first) order is preserved through the head
// indices, so root enumeration and random-head draws are unchanged.
type Mutator struct {
	ID  int
	h   *heap.Heap
	p   Params
	rng *rand.Rand

	stack     []heap.ObjID // transient roots, FIFO ring
	stackHead int          // index of the oldest stack entry
	retained  []heap.ObjID // medium-lived roots, FIFO ring
	retHead   int          // index of the oldest retained entry
	anchor    heap.ObjID   // old-gen structure this mutator grows

	// Scratch buffers reused across calls. The heap reads cluster sizes
	// only during AllocCluster, so handing it the same backing array
	// every time is safe; roots is only read between Roots calls.
	sizes []int32
	roots []heap.ObjID

	AllocatedBytes int64
	Clusters       int64
}

// NewMutator creates a mutator graph source. The anchor is allocated in the
// old generation immediately (it models the application's long-lived state).
func NewMutator(id int, h *heap.Heap, p Params, rng *rand.Rand) (*Mutator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Mutator{ID: id, h: h, p: p, rng: rng}
	anchor, ok := h.AllocOld(4 * p.MeanObjectSize)
	if !ok {
		return nil, fmt.Errorf("objgraph: old generation too small for anchors")
	}
	m.anchor = anchor
	return m, nil
}

// Roots returns the mutator's current GC roots (stack + retained, oldest
// first). The anchor is *not* a root here: it is reached through the
// remembered set, exactly like tenured application state in a real minor
// GC. The returned slice is a per-mutator buffer reused by the next Roots
// call; it stays valid through a GC pause (the mutator is parked) but must
// not be held across one.
func (m *Mutator) Roots() []heap.ObjID {
	roots := m.roots[:0]
	roots = append(roots, m.stack[m.stackHead:]...)
	roots = append(roots, m.stack[:m.stackHead]...)
	roots = append(roots, m.retained[m.retHead:]...)
	roots = append(roots, m.retained[:m.retHead]...)
	m.roots = roots
	return roots
}

// Anchor returns the mutator's old-generation anchor (a major-GC root).
func (m *Mutator) Anchor() heap.ObjID { return m.anchor }

// objSize draws an object size.
func (m *Mutator) objSize() int32 {
	mean := int64(m.p.MeanObjectSize)
	return int32(mean/2 + m.rng.Int63n(mean))
}

// AllocCluster allocates one cluster (head + fanout children) and updates
// the root windows. It returns the bytes allocated, or ok=false when eden
// cannot fit the cluster (time for a minor GC); nothing is allocated then.
func (m *Mutator) AllocCluster() (bytes int64, ok bool) {
	// Pre-compute sizes so we can check capacity atomically.
	if cap(m.sizes) < 1+m.p.ClusterFanout {
		m.sizes = make([]int32, 1+m.p.ClusterFanout)
	}
	sizes := m.sizes[:1+m.p.ClusterFanout]
	var need int64
	for i := range sizes {
		sizes[i] = m.objSize()
		need += int64(sizes[i])
	}
	head, ok := m.h.AllocCluster(sizes)
	if !ok {
		return 0, false
	}
	// Occasionally link to another live head: object graphs are graphs.
	if m.rng.Float64() < m.p.CrossRefProb {
		if other := m.randomLiveHead(); other != 0 {
			m.h.AddRef(head, other)
		}
	}
	m.pushStack(head)
	m.AllocatedBytes += need
	m.Clusters++
	return need, true
}

// stackAt and retainedAt map a logical (oldest-first) index to the ring.
func (m *Mutator) stackAt(i int) heap.ObjID {
	if i += m.stackHead; i >= len(m.stack) {
		i -= len(m.stack)
	}
	return m.stack[i]
}

func (m *Mutator) retainedAt(i int) heap.ObjID {
	if i += m.retHead; i >= len(m.retained) {
		i -= len(m.retained)
	}
	return m.retained[i]
}

func (m *Mutator) randomLiveHead() heap.ObjID {
	if len(m.stack) > 0 && (len(m.retained) == 0 || m.rng.Intn(2) == 0) {
		return m.stackAt(m.rng.Intn(len(m.stack)))
	}
	if len(m.retained) > 0 {
		return m.retainedAt(m.rng.Intn(len(m.retained)))
	}
	return 0
}

// pushStack adds a new head to the stack window, retiring the oldest when
// the window is full.
func (m *Mutator) pushStack(head heap.ObjID) {
	if len(m.stack) < m.p.StackWindow {
		m.stack = append(m.stack, head)
		return
	}
	// Ring push: overwrite the oldest slot and advance the head — the
	// in-place equivalent of append+shift, without the memmove.
	old := m.stack[m.stackHead]
	m.stack[m.stackHead] = head
	if m.stackHead++; m.stackHead == len(m.stack) {
		m.stackHead = 0
	}
	if m.rng.Float64() < m.p.RetainProb && m.p.RetainWindow > 0 {
		m.pushRetained(old)
	}
	// else: the head simply becomes unreachable — young garbage.
}

// pushRetained moves a retiring head into the retained ring, possibly
// attaching it to the old-generation anchor on the way in.
func (m *Mutator) pushRetained(old heap.ObjID) {
	if m.rng.Float64() < m.p.OldAttachProb {
		// old→young edge through the write barrier. The anchor window
		// is bounded: displaced subtrees become tenured garbage.
		n := m.h.RefLen(m.anchor)
		if m.p.AnchorWindow > 0 && n >= m.p.AnchorWindow {
			m.h.SetRef(m.anchor, m.rng.Intn(n), old)
		} else {
			m.h.AddRef(m.anchor, old)
		}
	}
	if len(m.retained) < m.p.RetainWindow {
		m.retained = append(m.retained, old)
		return
	}
	// Note: the evicted head may still be reachable via the anchor; that
	// is intended (tenured garbage accumulates and is only reclaimed by a
	// major GC after anchor trimming).
	m.retained[m.retHead] = old
	if m.retHead++; m.retHead == len(m.retained) {
		m.retHead = 0
	}
}

// TrimAnchor drops roughly frac of the anchor's references, turning tenured
// data into old-generation garbage (drives major-GC reclamation).
func (m *Mutator) TrimAnchor(frac float64) {
	refs := m.h.Refs(m.anchor)
	keep := 0
	for _, r := range refs {
		if m.rng.Float64() >= frac {
			refs[keep] = r
			keep++
		}
	}
	m.h.TruncateRefs(m.anchor, keep)
}
