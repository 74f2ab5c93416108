package objgraph

import (
	"math/rand"
	"testing"

	"repro/internal/heap"
)

// BenchmarkAllocCluster measures the mutator allocation model's step 1 —
// drawing a cluster's sizes and allocating it in eden in one heap call,
// plus the root-window update — on the default profile. Eden wipes run off
// the timer. Steady state must not allocate: the size staging buffer,
// root rings and heap tables are all reused.
func BenchmarkAllocCluster(b *testing.B) {
	h, err := heap.New(heap.Config{EdenBytes: 8 << 20, SurvivorBytes: 1 << 20, OldBytes: 1 << 30, TenureAge: 15})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMutator(0, h, DefaultParams(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.AllocCluster(); !ok {
			b.StopTimer()
			h.BeginMinorGC()
			h.FinishMinorGC()
			b.StartTimer()
		}
	}
}
