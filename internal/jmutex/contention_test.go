package jmutex

import (
	"reflect"
	"testing"

	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// contendedRun has consumers take the monitor, sometimes Wait on it, hold
// it and release it, while a notifier keeps NotifyAll-ing until they are
// done. viaPlan drives the consumers as compute plans that step the
// contended entry and the wait through Contention;
// otherwise they call Lock, Wait and Unlock in their bodies. It returns the
// event stream, the monitor counters and the kernel counters.
func contendedRun(t *testing.T, policy Policy, viaPlan bool) ([]evtrace.Event, Stats, cfs.KernelStats) {
	t.Helper()
	sim := simkit.New(9)
	t.Cleanup(sim.Close)
	tr := evtrace.New(1 << 18)
	sim.SetTracer(tr)
	k := cfs.NewKernel(sim, &ostopo.Topology{PhysCores: 3, SMTWays: 1, Nodes: 1}, cfs.DefaultParams())
	k.SetEvTracer(tr)
	m := New(k, "m", policy)
	const consumers, rounds = 5, 24
	hold := func(i int) simkit.Time { return simkit.Time(20+7*(i%5)) * us }
	waits := func(i int) bool { return i%4 == 1 }
	finished := 0
	var ths []*cfs.Thread
	for c := 0; c < consumers; c++ {
		ths = append(ths, k.Spawn("consumer", ostopo.CoreID(c%3), func(e *cfs.Env) {
			defer func() { finished++ }()
			if !viaPlan {
				for i := 0; i < rounds; i++ {
					m.Lock(e)
					if waits(i) {
						m.Wait(e)
					}
					e.Compute(hold(i))
					m.Unlock(e)
					e.Compute(5 * us)
				}
				return
			}
			th := e.T
			var cont Contention
			i, pc, after := 0, 0, 0
			e.ComputePlan(func() (cfs.Op, simkit.Time) {
				for {
					switch pc {
					case 0: // Lock
						if i == rounds {
							return cfs.OpDone, 0
						}
						pc = 1
						return cfs.OpCompute, m.LockBegin(th)
					case 1:
						pc = 3
						if !m.TryLockFast(th) {
							cont, pc, after = m.Contended(th), 2, 3
						}
					case 2: // contended entry or Wait, as steps
						if op, d := cont.Step(); op != cfs.OpDone {
							return op, d
						}
						pc = after
					case 3:
						pc = 5
						if waits(i) {
							pc = 4
							return cfs.OpCompute, m.WaitBegin(th)
						}
					case 4:
						cont, pc, after = m.Waiting(th), 2, 5
					case 5:
						pc = 6
						return cfs.OpCompute, hold(i)
					case 6:
						pc = 7
						return cfs.OpCompute, m.UnlockBegin(th)
					case 7:
						m.UnlockFinish(th)
						i, pc = i+1, 0
						return cfs.OpCompute, 5 * us
					}
				}
			})
		}))
	}
	ths = append(ths, k.Spawn("notifier", 2, func(e *cfs.Env) {
		for finished < consumers {
			e.Sleep(150 * us)
			m.Lock(e)
			m.NotifyAll(e)
			m.Unlock(e)
		}
	}))
	drain(t, sim, 10*simkit.Second, ths...)
	k.Shutdown()
	return append([]evtrace.Event(nil), tr.Events()...), m.Stats, k.Stats
}

// TestContentionPlanMatchesBody checks the plan form of the monitor's slow
// paths against Lock/Wait in the body under every policy: stepping the
// contended entry and the WaitSet wait from a compute plan must leave the
// event stream, the monitor counters and the kernel counters (apart from
// the elision counters) exactly as the body calls do.
func TestContentionPlanMatchesBody(t *testing.T) {
	for _, policy := range []Policy{PolicyHotSpot, PolicyFairFIFO, PolicyNoFastPath, PolicyWakeAll} {
		t.Run(policy.String(), func(t *testing.T) {
			evBody, msBody, ksBody := contendedRun(t, policy, false)
			evPlan, msPlan, ksPlan := contendedRun(t, policy, true)
			if msBody.ParkEvents == 0 || msBody.SlowAcquires == 0 {
				t.Fatalf("no contention to compare: %+v", msBody)
			}
			if !reflect.DeepEqual(evBody, evPlan) {
				i := 0
				for i < len(evBody) && i < len(evPlan) && evBody[i] == evPlan[i] {
					i++
				}
				var b, p any = "<end of stream>", "<end of stream>"
				if i < len(evBody) {
					b = evBody[i]
				}
				if i < len(evPlan) {
					p = evPlan[i]
				}
				t.Fatalf("event streams diverged at index %d of %d/%d:\nbody: %+v\nplan: %+v",
					i, len(evBody), len(evPlan), b, p)
			}
			if msBody != msPlan {
				t.Errorf("monitor stats diverged:\nbody: %+v\nplan: %+v", msBody, msPlan)
			}
			if ksPlan.BodyResumes >= ksBody.BodyResumes-msBody.ParkEvents {
				t.Errorf("plan BodyResumes = %d, want < %d (body %d minus %d parks)",
					ksPlan.BodyResumes, ksBody.BodyResumes-msBody.ParkEvents,
					ksBody.BodyResumes, msBody.ParkEvents)
			}
			ksBody.BodyResumes, ksPlan.BodyResumes = 0, 0
			ksBody.PlanElisions, ksPlan.PlanElisions = 0, 0
			ksBody.BurstElisions, ksPlan.BurstElisions = 0, 0
			if ksBody != ksPlan {
				t.Errorf("kernel stats diverged beyond elision counters:\nbody: %+v\nplan: %+v", ksBody, ksPlan)
			}
		})
	}
}
