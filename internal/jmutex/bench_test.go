package jmutex

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// BenchmarkMonitorAcquire measures one monitor acquisition and release,
// simulation included: the CAS fast path by a lone thread, and the
// contended slow path — queue, park, handoff, wake — of four threads on two
// cores under the HotSpot and wake-all policies. One op is one
// acquisition. Steady state must not allocate (bench-guard enforces 0
// allocs/op): the queues reuse their backing arrays, and a wake-all unlock
// walks them in place.
func BenchmarkMonitorAcquire(b *testing.B) {
	for _, bc := range []struct {
		name    string
		policy  Policy
		threads int
	}{
		{"fast", PolicyHotSpot, 1},
		{"hotspot-contended", PolicyHotSpot, 4},
		{"wake-all-contended", PolicyWakeAll, 4},
	} {
		b.Run(bc.name, func(b *testing.B) { benchAcquire(b, bc.policy, bc.threads) })
	}
}

func benchAcquire(b *testing.B, policy Policy, threads int) {
	sim := simkit.New(1)
	defer sim.Close()
	k := cfs.NewKernel(sim, &ostopo.Topology{PhysCores: 2, SMTWays: 1, Nodes: 1}, cfs.DefaultParams())
	m := New(k, "bench", policy)
	// Warm-up acquisitions grow the queues and the event heap to their
	// steady-state capacities before the timer starts.
	const warm = 1000
	target := warm + b.N
	acquired, done := 0, 0
	for i := 0; i < threads; i++ {
		k.Spawn("contender", ostopo.CoreID(i%2), func(e *cfs.Env) {
			for acquired < target {
				m.Lock(e)
				acquired++
				if acquired == warm {
					b.ReportAllocs()
					b.ResetTimer()
				}
				e.Compute(5 * simkit.Microsecond) // critical section
				m.Unlock(e)
				e.Compute(1 * simkit.Microsecond)
			}
			done++
		})
	}
	for done < threads && sim.Step() {
	}
	b.StopTimer()
	if done < threads {
		b.Fatal("contenders did not finish")
	}
	if threads > 1 && m.Stats.SlowAcquires == 0 {
		b.Fatal("no contended acquisitions")
	}
	k.Shutdown()
	for sim.Step() {
	}
}
