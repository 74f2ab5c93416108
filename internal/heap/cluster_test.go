package heap

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// allocClusterPerObject is the reference AllocCluster is held to: one
// capacity check for the whole cluster, then one Alloc per child in order
// and the head last, referencing the children.
func allocClusterPerObject(h *Heap, sizes []int32, need int64) (ObjID, bool) {
	if h.edenUsed+need > h.cfg.EdenBytes {
		return 0, false
	}
	children := make([]ObjID, 0, len(sizes)-1)
	for _, sz := range sizes[1:] {
		id, ok := h.Alloc(sz)
		if !ok {
			panic("per-object Alloc failed after the cluster capacity check")
		}
		children = append(children, id)
	}
	return h.Alloc(sizes[0], children...)
}

// sameHeaps fails unless a and b are observably identical: every object's
// size, space, age, node and refs, the per-space lists (eden in order),
// the free list, occupancy and Stats.
func sameHeaps(t *testing.T, step string, a, b *Heap) {
	t.Helper()
	if len(a.meta) != len(b.meta) {
		t.Fatalf("%s: object tables hold %d vs %d slots", step, len(a.meta), len(b.meta))
	}
	for i := 1; i < len(a.meta); i++ {
		id := ObjID(i)
		if a.SpaceOf(id) != b.SpaceOf(id) || a.SizeOf(id) != b.SizeOf(id) ||
			a.AgeOf(id) != b.AgeOf(id) || a.NodeOf(id) != b.NodeOf(id) {
			t.Fatalf("%s: object %d: space/size/age/node %v/%d/%d/%d vs %v/%d/%d/%d", step, id,
				a.SpaceOf(id), a.SizeOf(id), a.AgeOf(id), a.NodeOf(id),
				b.SpaceOf(id), b.SizeOf(id), b.AgeOf(id), b.NodeOf(id))
		}
		if a.SpaceOf(id) != SpaceNone && !slices.Equal(a.Refs(id), b.Refs(id)) {
			t.Fatalf("%s: object %d refs %v vs %v", step, id, a.Refs(id), b.Refs(id))
		}
	}
	for _, l := range []struct {
		name string
		a, b []ObjID
	}{{"eden", a.eden, b.eden}, {"from", a.from, b.from}, {"old", a.old, b.old},
		{"free", a.free, b.free}, {"remembered", a.remembered, b.remembered}} {
		if !slices.Equal(l.a, l.b) {
			t.Fatalf("%s: %s lists differ:\n%v\n%v", step, l.name, l.a, l.b)
		}
	}
	ae, af, ao := a.Usage()
	be, bf, bo := b.Usage()
	if ae != be || af != bf || ao != bo {
		t.Fatalf("%s: usage %d/%d/%d vs %d/%d/%d", step, ae, af, ao, be, bf, bo)
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: Stats %+v vs %+v", step, a.Stats, b.Stats)
	}
	for _, h := range []*Heap{a, b} {
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
}

// scavengeFrom runs one minor GC retaining what roots and the remembered
// set reach.
func scavengeFrom(h *Heap, roots []ObjID) {
	h.BeginMinorGC()
	stack := slices.Clone(roots)
	for _, o := range h.RememberedSet() {
		stack = append(stack, h.Refs(o)...)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == 0 {
			continue
		}
		if _, _, first := h.CopyYoung(id); first {
			stack = append(stack, h.Refs(id)...)
		}
	}
	h.FinishMinorGC()
}

// TestAllocClusterMatchesPerObjectAlloc drives two heaps through the same
// randomized sequence, one allocating clusters with AllocCluster and one
// with per-object Alloc calls. Minor GCs recycle slots through the free
// list, cross references and anchor stores keep the write barrier busy,
// and dead reference blocks pile up until the refs arena compacts. After
// every step the two heaps must be identical.
func TestAllocClusterMatchesPerObjectAlloc(t *testing.T) {
	cfg := Config{EdenBytes: 192 << 10, SurvivorBytes: 8 << 10, OldBytes: 1 << 30, TenureAge: 3}
	got, want := mustNew(t, cfg), mustNew(t, cfg)
	anchorG, _ := got.AllocOld(64)
	anchorW, _ := want.AllocOld(64)
	if anchorG != anchorW {
		t.Fatal("anchors differ")
	}
	rng := rand.New(rand.NewSource(7))
	var heads []ObjID // live cluster heads, used as roots
	var sizes []int32
	clusters, recycled, rejected := 0, 0, 0
	for step := 0; step < 8000; step++ {
		switch op := rng.Intn(20); {
		case op < 16: // allocate a cluster
			sizes = sizes[:0]
			var need int64
			for n := 1 + rng.Intn(9); n > 0; n-- {
				sz := int32(16 + rng.Intn(48))
				sizes = append(sizes, sz)
				need += int64(sz)
			}
			node := rng.Intn(4)
			got.SetAllocNode(node)
			want.SetAllocNode(node)
			if len(got.free) > 0 {
				recycled++
			}
			g, gok := got.AllocCluster(sizes)
			w, wok := allocClusterPerObject(want, sizes, need)
			if g != w || gok != wok {
				t.Fatalf("step %d: AllocCluster = (%d, %v), per-object = (%d, %v)", step, g, gok, w, wok)
			}
			if !gok {
				rejected++
				scavengeFrom(got, heads)
				scavengeFrom(want, heads)
				heads = slices.DeleteFunc(heads, func(id ObjID) bool { return got.SpaceOf(id) == SpaceNone })
				break
			}
			clusters++
			heads = append(heads, g)
			if len(heads) > 24 {
				heads = heads[len(heads)-24:]
			}
		case op < 18 && len(heads) > 1: // cross reference between live heads
			p, c := heads[rng.Intn(len(heads))], heads[rng.Intn(len(heads))]
			got.AddRef(p, c)
			want.AddRef(p, c)
		case len(heads) > 0: // old→young store through the anchor
			c := heads[rng.Intn(len(heads))]
			if got.RefLen(anchorG) >= 8 {
				got.ClearRefs(anchorG)
				want.ClearRefs(anchorW)
			}
			got.AddRef(anchorG, c)
			want.AddRef(anchorW, c)
		}
		sameHeaps(t, fmt.Sprintf("step %d", step), got, want)
	}
	if clusters == 0 || recycled == 0 || rejected < 3 || got.Stats.RefCompactions == 0 {
		t.Fatalf("sequence too tame: %d clusters (%d on recycled slots), %d rejected, %d compactions",
			clusters, recycled, rejected, got.Stats.RefCompactions)
	}
	t.Logf("%d clusters (%d on recycled slots), %d rejected, %d compactions", clusters, recycled, rejected, got.Stats.RefCompactions)
}

// cloneHeap deep-copies a heap so a later mutation of the original cannot
// show through the copy's slices.
func cloneHeap(h *Heap) Heap {
	c := *h
	c.meta = slices.Clone(h.meta)
	c.refs, c.refsBack = slices.Clone(h.refs), slices.Clone(h.refsBack)
	c.free = slices.Clone(h.free)
	c.eden, c.from, c.to, c.old = slices.Clone(h.eden), slices.Clone(h.from), slices.Clone(h.to), slices.Clone(h.old)
	c.remembered = slices.Clone(h.remembered)
	return c
}

// TestAllocClusterRejectLeavesHeapUntouched: a cluster that does not fit
// in eden allocates nothing, even when every object but the last would
// fit, and free slots are waiting to be recycled.
func TestAllocClusterRejectLeavesHeapUntouched(t *testing.T) {
	h := mustNew(t, Config{EdenBytes: 1000, SurvivorBytes: 1000, OldBytes: 1 << 20, TenureAge: 2})
	for i := 0; i < 4; i++ {
		if _, ok := h.AllocCluster([]int32{50, 50, 50}); !ok {
			t.Fatal("setup cluster rejected")
		}
	}
	scavengeFrom(h, nil) // frees every slot
	if _, ok := h.AllocCluster([]int32{100, 100, 100, 100, 100, 100, 100, 100, 100}); !ok {
		t.Fatal("setup cluster rejected")
	}
	before := cloneHeap(h)
	if id, ok := h.AllocCluster([]int32{41, 30, 30}); ok {
		t.Fatalf("a 101-byte cluster fit in 100 free eden bytes (id %d)", id)
	}
	if after := cloneHeap(h); !reflect.DeepEqual(before, after) {
		t.Errorf("rejected cluster changed the heap:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, ok := h.AllocCluster([]int32{40, 30, 30}); !ok {
		t.Error("a cluster of exactly the free eden bytes was rejected")
	}
}

// TestCheckInvariantsInvalidSpace: a corrupted space tag is reported, not
// a panic.
func TestCheckInvariantsInvalidSpace(t *testing.T) {
	h := mustNew(t, testConfig())
	id, _ := h.Alloc(64)
	h.meta[id].space = numSpaces
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted an object with an invalid space")
	}
}
