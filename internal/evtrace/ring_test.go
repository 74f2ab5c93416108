package evtrace

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"testing"
)

// eagerTracer is the reference the growing rings are held to: a tracer
// whose every ring is allocated at full capacity up front, so put never
// grows it: the behaviour on-demand growth must reproduce.
func eagerTracer(capPerSink int) *Tracer {
	t := New(capPerSink)
	for i := range t.sinks {
		t.sinks[i].buf = make([]Event, capPerSink)
	}
	return t
}

// emitOracleStream emits n cfs events (exactly n, so the ring boundaries
// under test are hit precisely) interleaved with a simkit event every
// third step, with names and threads that the Perfetto export renders.
func emitOracleStream(t *Tracer, n int) {
	t.RegisterThread(1, "mutator#0")
	t.RegisterThread(2, "GCTaskThread#0")
	for i := 0; i < n; i++ {
		tid := int32(1 + i%2)
		t.Emit(Event{Kind: KDispatch, At: int64(10 * i), Dur: 7, Core: int32(i % 3), TID: tid, Name: t.ThreadName(tid), Arg1: int64(i)})
		if i%3 == 0 {
			t.Emit(Event{Kind: KEvFire, At: int64(10*i + 1), Core: -1, TID: -1, Arg1: int64(i)})
		}
	}
}

func perfettoWindow(t *testing.T, tr *Tracer, lo, hi uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePerfettoWindow(&buf, tr, lo, hi); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRingGrowthMatchesEagerRing: growing a ring on demand must be
// invisible. For every capacity and event count around the growth and
// wrap boundaries, the retained events, drop counts, Len and the Perfetto
// export equal those of a ring allocated at full capacity.
func TestRingGrowthMatchesEagerRing(t *testing.T) {
	for _, capPerSink := range []int{4, 64, 1024, 4096} {
		ns := []int{0, 1, 1023, 1024, 1025, capPerSink - 1, capPerSink, capPerSink + 1, 3*capPerSink + 7}
		for _, n := range ns {
			t.Run(fmt.Sprintf("cap=%d/n=%d", capPerSink, n), func(t *testing.T) {
				got, want := New(capPerSink), eagerTracer(capPerSink)
				emitOracleStream(got, n)
				emitOracleStream(want, n)
				for _, l := range Layers() {
					if g, w := got.LayerEvents(l), want.LayerEvents(l); !reflect.DeepEqual(g, w) {
						t.Fatalf("layer %v: retained events differ from the eager ring's (%d vs %d events)", l, len(g), len(w))
					}
				}
				if g, w := got.Drops(), want.Drops(); !reflect.DeepEqual(g, w) {
					t.Errorf("Drops = %v, eager ring %v", g, w)
				}
				if g, w := got.Len(), want.Len(); g != w {
					t.Errorf("Len = %d, eager ring %d", g, w)
				}
				last := uint64(n + (n+2)/3)
				for _, win := range [][2]uint64{{1, ^uint64(0)}, {last / 2, last}} {
					if g, w := perfettoWindow(t, got, win[0], win[1]), perfettoWindow(t, want, win[0], win[1]); !bytes.Equal(g, w) {
						t.Errorf("WritePerfettoWindow(%d, %d) differs from the eager ring's export", win[0], win[1])
					}
				}
			})
		}
	}
}

// keepTracer forces the tracers built in the allocation test to escape, so
// the New-only and New-plus-emits measurements count the same allocations
// for the tracer itself.
var keepTracer *Tracer

// TestRingGrowthAllocations: a short run holds a small ring, and a ring
// that fills reaches exactly its capacity by doubling, in at most
// ⌈log₂(cap/1024)⌉+1 allocations.
func TestRingGrowthAllocations(t *testing.T) {
	tr := New(0)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KDispatch, At: int64(i)})
	}
	if n := len(tr.sinks[LayerCFS].buf); n > initSinkSlots {
		t.Errorf("after 10 emits the cfs ring holds %d slots, want <= %d", n, initSinkSlots)
	}
	for i := 10; i < DefaultSinkCap; i++ {
		tr.Emit(Event{Kind: KDispatch, At: int64(i)})
	}
	if n := len(tr.sinks[LayerCFS].buf); n != DefaultSinkCap {
		t.Errorf("after %d emits the cfs ring holds %d slots, want exactly %d", DefaultSinkCap, n, DefaultSinkCap)
	}
	for l := range tr.sinks {
		if Layer(l) != LayerCFS && tr.sinks[l].buf != nil {
			t.Errorf("layer %v allocated a ring without an emit", Layer(l))
		}
	}

	base := testing.AllocsPerRun(5, func() { keepTracer = New(0) })
	full := testing.AllocsPerRun(5, func() {
		keepTracer = New(0)
		for i := 0; i < DefaultSinkCap; i++ {
			keepTracer.Emit(Event{Kind: KDispatch, At: int64(i)})
		}
	})
	maxGrowths := bits.Len(uint(DefaultSinkCap/initSinkSlots-1)) + 1 // ⌈log₂(cap/1024)⌉+1
	if got := full - base; got > float64(maxGrowths) {
		t.Errorf("filling a %d-slot ring took %.0f allocations, want <= %d", DefaultSinkCap, got, maxGrowths)
	}
}
