package heap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{EdenBytes: 10000, SurvivorBytes: 2000, OldBytes: 50000, TenureAge: 3}
}

func mustNew(t *testing.T, cfg Config) *Heap {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{EdenBytes: 0, SurvivorBytes: 1, OldBytes: 1, TenureAge: 1},
		{EdenBytes: 1, SurvivorBytes: -1, OldBytes: 1, TenureAge: 1},
		{EdenBytes: 1, SurvivorBytes: 1, OldBytes: 0, TenureAge: 1},
		{EdenBytes: 1, SurvivorBytes: 1, OldBytes: 1, TenureAge: 0},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("New accepted invalid config %+v", c)
		}
	}
}

func TestAllocBasics(t *testing.T) {
	h := mustNew(t, testConfig())
	a, ok := h.Alloc(100)
	if !ok || a == 0 {
		t.Fatal("Alloc failed on empty heap")
	}
	b, ok := h.Alloc(50, a)
	if !ok {
		t.Fatal("second Alloc failed")
	}
	if got := h.Refs(b); len(got) != 1 || got[0] != a {
		t.Errorf("refs = %v, want [a]", got)
	}
	eden, _, _ := h.Usage()
	if eden != 150 {
		t.Errorf("eden usage = %d, want 150", eden)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocFailsWhenEdenFull(t *testing.T) {
	h := mustNew(t, Config{EdenBytes: 100, SurvivorBytes: 100, OldBytes: 100, TenureAge: 2})
	if _, ok := h.Alloc(60); !ok {
		t.Fatal("first alloc should fit")
	}
	if _, ok := h.Alloc(60); ok {
		t.Error("alloc beyond eden capacity succeeded")
	}
	if _, ok := h.AllocCluster([]int32{30, 30}); ok {
		t.Error("cluster beyond eden capacity succeeded")
	}
	if _, ok := h.AllocCluster([]int32{20, 20}); !ok {
		t.Error("cluster filling eden exactly failed")
	}
}

func TestMinorGCCollectsGarbage(t *testing.T) {
	h := mustNew(t, testConfig())
	live, _ := h.Alloc(100)
	dead, _ := h.Alloc(200)
	_ = dead
	h.BeginMinorGC()
	h.CopyYoung(live)
	freed := h.FinishMinorGC()
	if freed != 200 {
		t.Errorf("freed = %d, want 200 (the dead object)", freed)
	}
	if h.SpaceOf(live) != SpaceFrom {
		t.Errorf("survivor in space %v, want from", h.SpaceOf(live))
	}
	if h.AgeOf(live) != 1 {
		t.Errorf("survivor age = %d, want 1", h.AgeOf(live))
	}
	eden, from, _ := h.Usage()
	if eden != 0 || from != 100 {
		t.Errorf("after GC eden=%d from=%d, want 0/100", eden, from)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTenuringPromotesAfterAge(t *testing.T) {
	h := mustNew(t, testConfig()) // TenureAge 3
	obj, _ := h.Alloc(100)
	for i := 0; i < 2; i++ {
		h.BeginMinorGC()
		if _, promoted, _ := h.CopyYoung(obj); promoted {
			t.Fatalf("promoted on GC %d, want survivor copy", i)
		}
		h.FinishMinorGC()
	}
	h.BeginMinorGC()
	_, promoted, _ := h.CopyYoung(obj)
	h.FinishMinorGC()
	if !promoted {
		t.Error("object not promoted at tenure age")
	}
	if h.SpaceOf(obj) != SpaceOld {
		t.Errorf("space = %v, want old", h.SpaceOf(obj))
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSurvivorOverflowPromotes(t *testing.T) {
	h := mustNew(t, Config{EdenBytes: 10000, SurvivorBytes: 150, OldBytes: 10000, TenureAge: 10})
	a, _ := h.Alloc(100)
	b, _ := h.Alloc(100)
	h.BeginMinorGC()
	_, p1, _ := h.CopyYoung(a)
	_, p2, _ := h.CopyYoung(b)
	h.FinishMinorGC()
	if p1 {
		t.Error("first object promoted although survivor space had room")
	}
	if !p2 {
		t.Error("second object not promoted on survivor overflow")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCopyYoungIdempotent(t *testing.T) {
	h := mustNew(t, testConfig())
	a, _ := h.Alloc(100)
	h.BeginMinorGC()
	_, _, first := h.CopyYoung(a)
	if !first {
		t.Error("first visit not reported")
	}
	_, _, again := h.CopyYoung(a)
	if again {
		t.Error("second visit reported as first")
	}
	h.FinishMinorGC()
	_, fromUsed, _ := h.Usage()
	if fromUsed != 100 {
		t.Errorf("double copy changed accounting: from=%d, want 100", fromUsed)
	}
}

func TestWriteBarrierMaintainsRememberedSet(t *testing.T) {
	h := mustNew(t, testConfig())
	oldObj, ok := h.AllocOld(500)
	if !ok {
		t.Fatal("AllocOld failed")
	}
	young, _ := h.Alloc(50)
	h.AddRef(oldObj, young)
	if !h.InRS(oldObj) {
		t.Error("old→young store did not enter the remembered set")
	}
	rs := h.RememberedSet()
	if len(rs) != 1 || rs[0] != oldObj {
		t.Errorf("RememberedSet = %v, want [oldObj]", rs)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRememberedSetPrunedAfterGC(t *testing.T) {
	h := mustNew(t, testConfig())
	oldObj, _ := h.AllocOld(500)
	young, _ := h.Alloc(50)
	h.AddRef(oldObj, young)
	// GC promotes the young object directly? No: age 0 < 3, so it survives
	// to from-space; the RS entry must be kept.
	h.BeginMinorGC()
	h.CopyYoung(young)
	h.FinishMinorGC()
	if len(h.RememberedSet()) != 1 {
		t.Errorf("RS pruned although child still young: %v", h.RememberedSet())
	}
	// Drop the reference; the next GC prunes the entry (child dies).
	h.ClearRefs(oldObj)
	h.BeginMinorGC()
	h.FinishMinorGC()
	if len(h.RememberedSet()) != 0 {
		t.Errorf("RS not pruned after reference cleared: %v", h.RememberedSet())
	}
	if h.InRS(oldObj) {
		t.Error("InRS flag not cleared")
	}
}

func TestPromotedObjectWithYoungChildrenEntersRS(t *testing.T) {
	h := mustNew(t, Config{EdenBytes: 10000, SurvivorBytes: 2000, OldBytes: 50000, TenureAge: 1})
	child, _ := h.Alloc(10)
	parent, _ := h.Alloc(100, child)
	h.BeginMinorGC()
	// Scavenge parent first: it promotes (tenure age 1) while child is
	// still young at that moment — classic RS update case. Child then
	// promotes too; the prune at FinishMinorGC drops the stale entry.
	h.CopyYoung(parent)
	if !h.InRS(parent) {
		t.Error("promoted parent with young child missing from RS")
	}
	h.CopyYoung(child)
	h.FinishMinorGC()
	if len(h.RememberedSet()) != 0 {
		t.Error("RS entry kept although child promoted as well")
	}
}

func TestMajorGCSweepsAllSpaces(t *testing.T) {
	h := mustNew(t, testConfig())
	liveOld, _ := h.AllocOld(300)
	deadOld, _ := h.AllocOld(400)
	liveYoung, _ := h.Alloc(30)
	deadYoung, _ := h.Alloc(70)
	_ = deadOld
	_ = deadYoung
	h.BeginMajorGC()
	h.Mark(liveOld)
	h.Mark(liveYoung)
	freedOld, liveOldBytes := h.FinishMajorGC()
	if freedOld != 400 {
		t.Errorf("freedOld = %d, want 400", freedOld)
	}
	if liveOldBytes != 300 {
		t.Errorf("liveOld = %d, want 300", liveOldBytes)
	}
	eden, _, old := h.Usage()
	if eden != 30 || old != 300 {
		t.Errorf("after full GC eden=%d old=%d, want 30/300", eden, old)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSlotReuseAfterFree(t *testing.T) {
	h := mustNew(t, testConfig())
	a, _ := h.Alloc(100)
	h.BeginMinorGC()
	h.FinishMinorGC() // a dies
	b, _ := h.Alloc(60)
	if b != a {
		t.Errorf("slot not reused: got %d, want %d", b, a)
	}
	if h.SizeOf(b) != 60 || h.AgeOf(b) != 0 || h.RefLen(b) != 0 || h.InRS(b) {
		t.Errorf("reused slot not reset: size=%d age=%d refs=%d inRS=%v",
			h.SizeOf(b), h.AgeOf(b), h.RefLen(b), h.InRS(b))
	}
}

func TestReachableFromOracle(t *testing.T) {
	h := mustNew(t, testConfig())
	a, _ := h.Alloc(10)
	b, _ := h.Alloc(10, a)
	c, _ := h.Alloc(10, b)
	d, _ := h.Alloc(10) // unreachable
	reach := h.ReachableFrom([]ObjID{c})
	if !reach[a] || !reach[b] || !reach[c] {
		t.Error("transitively reachable objects missing")
	}
	if reach[d] {
		t.Error("unreachable object reported reachable")
	}
	// Cycles must terminate.
	h.AddRef(a, c)
	reach = h.ReachableFrom([]ObjID{a})
	if len(reach) != 3 {
		t.Errorf("cycle reachability = %d objects, want 3", len(reach))
	}
}

func TestSetConfigResizing(t *testing.T) {
	h := mustNew(t, testConfig())
	if _, ok := h.Alloc(5000); !ok {
		t.Fatal("alloc failed")
	}
	cfg := h.Config()
	cfg.EdenBytes = 4000 // below occupancy
	if err := h.SetConfig(cfg); err == nil {
		t.Error("SetConfig allowed shrinking below occupancy")
	}
	cfg.EdenBytes = 20000
	if err := h.SetConfig(cfg); err != nil {
		t.Errorf("SetConfig rejected valid grow: %v", err)
	}
	if h.Config().EdenBytes != 20000 {
		t.Error("config not applied")
	}
}

// TestScavengeEquivalentToOracle is the central property test: a random
// object graph, scavenged via CopyYoung over the reachable young set,
// preserves exactly the oracle's reachable objects and frees the rest.
func TestScavengeEquivalentToOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, _ := New(Config{EdenBytes: 1 << 20, SurvivorBytes: 1 << 18, OldBytes: 1 << 20, TenureAge: 4})
		var ids []ObjID
		for i := 0; i < 200; i++ {
			nrefs := rng.Intn(4)
			refs := make([]ObjID, 0, nrefs)
			for j := 0; j < nrefs && len(ids) > 0; j++ {
				refs = append(refs, ids[rng.Intn(len(ids))])
			}
			id, ok := h.Alloc(int32(8+rng.Intn(256)), refs...)
			if !ok {
				return false
			}
			ids = append(ids, id)
		}
		// Random roots.
		var roots []ObjID
		for _, id := range ids {
			if rng.Intn(4) == 0 {
				roots = append(roots, id)
			}
		}
		want := h.ReachableFrom(roots)
		// Sequential scavenge (BFS from roots).
		h.BeginMinorGC()
		queue := append([]ObjID{}, roots...)
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			if _, _, first := h.CopyYoung(id); !first {
				continue
			}
			for _, r := range h.Refs(id) {
				if r != 0 && !h.Visited(r) {
					queue = append(queue, r)
				}
			}
		}
		h.FinishMinorGC()
		if err := h.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		// Every oracle-live object survived; everything else is free.
		liveCount := 0
		for _, id := range ids {
			alive := h.SpaceOf(id) != SpaceNone
			if want[id] != alive {
				t.Logf("object %d: oracle live=%v, heap alive=%v", id, want[id], alive)
				return false
			}
			if alive {
				liveCount++
			}
		}
		return liveCount == len(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := mustNew(t, testConfig())
	a, _ := h.Alloc(100)
	h.AllocOld(200)
	if h.Stats.AllocatedObjects != 2 || h.Stats.AllocatedBytes != 300 {
		t.Errorf("alloc stats wrong: %+v", h.Stats)
	}
	h.BeginMinorGC()
	h.CopyYoung(a)
	h.FinishMinorGC()
	if h.Stats.SurvivedObjects != 1 {
		t.Errorf("SurvivedObjects = %d, want 1", h.Stats.SurvivedObjects)
	}
}

func TestSpaceString(t *testing.T) {
	for sp, want := range map[Space]string{
		SpaceNone: "free", SpaceEden: "eden", SpaceFrom: "from",
		SpaceTo: "to", SpaceOld: "old", Space(9): "Space(9)",
	} {
		if sp.String() != want {
			t.Errorf("Space(%d).String() = %q, want %q", uint8(sp), sp.String(), want)
		}
	}
}
