package affinity

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

func newKernel(t *testing.T, blockedLoads bool) (*simkit.Sim, *cfs.Kernel) {
	t.Helper()
	sim := simkit.New(1)
	t.Cleanup(sim.Close)
	p := cfs.DefaultParams()
	p.LoadAvgCountsBlocked = blockedLoads
	return sim, cfs.NewKernel(sim, ostopo.PaperTestbed(), p)
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeNone: "none", ModeStatic: "static", ModeDynamic: "dynamic",
		ModeNUMANode: "numa-node", Mode(7): "Mode(7)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
}

func TestStaticBindingPinsWorker(t *testing.T) {
	sim, k := newKernel(t, false)
	b := New(ModeStatic, k)
	var core ostopo.CoreID = -1
	th := k.Spawn("gc", 0, func(e *cfs.Env) {
		b.WorkerStart(e, 7)
		e.Compute(simkit.Millisecond)
		core = e.Core()
	})
	for th.State() != cfs.StateDone && sim.Step() {
	}
	if core != 7 {
		t.Errorf("worker 7 bound to core %d, want 7", core)
	}
}

func TestNUMANodeBindingStaysOnNode(t *testing.T) {
	sim, k := newKernel(t, false)
	b := New(ModeNUMANode, k)
	var core ostopo.CoreID = -1
	th := k.Spawn("gc", 0, func(e *cfs.Env) {
		b.WorkerStart(e, 3) // odd worker -> node 1
		e.Compute(simkit.Millisecond)
		core = e.Core()
	})
	for th.State() != cfs.StateDone && sim.Step() {
	}
	if k.Topo.Node(core) != 1 {
		t.Errorf("worker 3 ran on node %d, want 1", k.Topo.Node(core))
	}
}

func TestDynamicRebindsAwayFromContendedCore(t *testing.T) {
	sim, k := newKernel(t, true)
	b := New(ModeDynamic, k)
	// Park a pile of threads on core 0 to make it look contended.
	for i := 0; i < 10; i++ {
		k.Spawn("sleeper", 0, func(e *cfs.Env) { e.Park() })
	}
	var before, after ostopo.CoreID
	th := k.Spawn("gc", 0, func(e *cfs.Env) {
		e.Compute(100 * simkit.Microsecond)
		before = e.Core()
		b.GCWake(e, 0)
		e.Compute(100 * simkit.Microsecond)
		after = e.Core()
	})
	for th.State() != cfs.StateDone && sim.Step() {
	}
	if before != 0 {
		t.Fatalf("setup: thread not on core 0 (%d)", before)
	}
	if after == 0 {
		t.Error("dynamic rebalancing left the thread on the contended core")
	}
	if b.Rebinds != 1 {
		t.Errorf("Rebinds = %d, want 1", b.Rebinds)
	}
}

func TestDynamicStaysOnUncontendedCore(t *testing.T) {
	sim, k := newKernel(t, true)
	b := New(ModeDynamic, k)
	// Spread some blocked threads so the average is not zero.
	for i := 0; i < 8; i++ {
		k.Spawn("sleeper", ostopo.CoreID(i+2), func(e *cfs.Env) { e.Park() })
	}
	var after ostopo.CoreID = -1
	th := k.Spawn("gc", 1, func(e *cfs.Env) {
		e.Compute(100 * simkit.Microsecond)
		b.GCWake(e, 0)
		e.Compute(100 * simkit.Microsecond)
		after = e.Core()
	})
	for th.State() != cfs.StateDone && sim.Step() {
	}
	if after != 1 {
		t.Errorf("thread moved from uncontended core 1 to %d", after)
	}
	if b.Rebinds != 0 {
		t.Errorf("Rebinds = %d, want 0", b.Rebinds)
	}
}

func TestNonDynamicGCWakeIsNoop(t *testing.T) {
	sim, k := newKernel(t, true)
	b := New(ModeStatic, k)
	th := k.Spawn("gc", 0, func(e *cfs.Env) {
		b.GCWake(e, 0)
		e.Compute(simkit.Microsecond)
	})
	for th.State() != cfs.StateDone && sim.Step() {
	}
	if b.Rebinds != 0 {
		t.Error("static mode rebound on GCWake")
	}
}

func TestGCWakeHookOnlyWhenDynamic(t *testing.T) {
	_, k := newKernel(t, false)
	for _, m := range []Mode{ModeNone, ModeStatic, ModeDynamic, ModeNUMANode} {
		if got, want := New(m, k).GCWakeHook() != nil, m == ModeDynamic; got != want {
			t.Errorf("%v: GCWakeHook set = %v, want %v", m, got, want)
		}
	}
}

func TestNodeOfMapping(t *testing.T) {
	_, k := newKernel(t, false)
	b := New(ModeNUMANode, k)
	nodeOf := b.NodeOf(6)
	want := []int{0, 1, 0, 1, 0, 1}
	for i, n := range nodeOf {
		if n != want[i] {
			t.Errorf("NodeOf[%d] = %d, want %d", i, n, want[i])
		}
	}
}
