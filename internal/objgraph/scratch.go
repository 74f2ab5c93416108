package objgraph

import (
	"math/rand"

	"repro/internal/heap"
)

// Scratch pools the per-mutator working buffers — stack/retained root
// windows, the roots snapshot, and the AllocCluster size staging array —
// across simulation cells, indexed by mutator ID so each mutator gets
// back buffers already sized for its windows. All buffers hold ObjIDs
// or sizes (no pointers), so truncation alone recycles them. The zero value
// is ready to use.
type Scratch struct {
	muts []mutScratch
}

type mutScratch struct {
	stack    []heap.ObjID
	retained []heap.ObjID
	sizes    []int32
	roots    []heap.ObjID
}

// NewMutatorWith creates a mutator like NewMutator, adopting the buffers
// pooled under the same mutator ID in sc (sc may be nil). Buffer adoption
// only changes slice capacities, never values (the ring heads start at
// zero either way), so allocation streams are byte-identical with or
// without scratch.
func NewMutatorWith(id int, h *heap.Heap, p Params, rng *rand.Rand, sc *Scratch) (*Mutator, error) {
	m, err := NewMutator(id, h, p, rng)
	if err != nil {
		return nil, err
	}
	if sc != nil && id < len(sc.muts) {
		ms := &sc.muts[id]
		m.stack = ms.stack[:0]
		m.retained = ms.retained[:0]
		m.sizes = ms.sizes[:0]
		m.roots = ms.roots[:0]
		*ms = mutScratch{}
	}
	return m, nil
}

// Reclaim harvests the mutator's buffers into sc for a later
// NewMutatorWith. The mutator is unusable afterwards.
func (m *Mutator) Reclaim(sc *Scratch) {
	for m.ID >= len(sc.muts) {
		sc.muts = append(sc.muts, mutScratch{})
	}
	sc.muts[m.ID] = mutScratch{
		stack:    m.stack[:0],
		retained: m.retained[:0],
		sizes:    m.sizes[:0],
		roots:    m.roots[:0],
	}
	m.stack, m.retained, m.sizes, m.roots = nil, nil, nil, nil
}
