package check

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/workload"
)

// TestCheckerOnRealRun: a full optimized-configuration simulation with the
// checker attached satisfies every invariant end to end.
func TestCheckerOnRealRun(t *testing.T) {
	p := workload.Lusearch()
	p.TotalItems = 1500
	tr := evtrace.New(0)
	ck := New()
	ck.Attach(tr)
	cfg := jvm.Config{Profile: p, Mutators: 8, GCThreads: 8}
	if _, err := jvm.Run(jvm.RunSpec{Config: cfg.WithOptimizations(), Seed: 7, EvTracer: tr}); err != nil {
		t.Fatal(err)
	}
	ck.Finish()
	if err := ck.Err(); err != nil {
		t.Fatalf("%v\nfull report:\n%s", err, ck.Report())
	}
	if ck.EventsSeen() == 0 {
		t.Fatal("checker saw no events; subscription broken")
	}
}

// TestSweepSmoke runs the head of the default sweep — the same cells
// `make check-invariants` and cmd/simcheck cover — and requires every cell
// clean: no invariant violations, and byte-identical checked/bare replays.
func TestSweepSmoke(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 3
	}
	for _, cell := range Cells(42, n) {
		r := RunCell(cell)
		if r.Failed() {
			t.Errorf("%s", r.Summary())
		}
	}
}

// TestDigestStableAcrossRepeatedRuns: the sweep digest — the same encoding
// the gcsimd response cache hashes — must be byte-stable: digesting one
// cell's results repeatedly, and re-running the same cell from scratch,
// always yields the identical hex string. Any map-iteration order leaking
// into the digested encoding would flake this test.
func TestDigestStableAcrossRepeatedRuns(t *testing.T) {
	cell := Cells(42, 1)[0]
	results, err := runCellOnce(cell, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := digestResults(results)
	for i := 0; i < 10; i++ {
		if got := digestResults(results); got != want {
			t.Fatalf("repeated digest of one result set differs: %s != %s", got, want)
		}
	}
	rerun, err := runCellOnce(cell, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestResults(rerun); got != want {
		t.Fatalf("fresh replay digest differs: %s != %s", got, want)
	}
}

// TestCellsPrefixStable: cell i must not depend on the sweep length, so a
// short smoke sweep covers a prefix of the full one and any failure
// reproduces with "-cells index+1".
func TestCellsPrefixStable(t *testing.T) {
	long, short := Cells(42, 32), Cells(42, 8)
	for i := range short {
		if long[i] != short[i] {
			t.Fatalf("cell %d differs between n=8 and n=32:\n  %s\n  %s", i, short[i], long[i])
		}
	}
	if Cells(43, 1)[0] == Cells(42, 1)[0] {
		t.Fatal("different base seeds produced identical cells")
	}
}

// TestWriteViolationWindow: the pre-violation export is valid trace-event
// JSON containing only the window's events.
func TestWriteViolationWindow(t *testing.T) {
	tr := evtrace.New(0)
	ck := New()
	ck.Attach(tr)
	for i := 0; i < 100; i++ {
		tr.Emit(evtrace.Event{Kind: evtrace.KPreempt, At: int64(i), Core: 0, TID: 1})
	}
	// Seed a violation at seq 101.
	tr.Emit(evtrace.Event{Kind: evtrace.KLockRelease, At: 100, Core: -1, TID: 1, Name: "L"})
	if ck.Total() != 1 {
		t.Fatalf("expected exactly one seeded violation, got %d", ck.Total())
	}
	v := ck.Violations()[0]
	var buf bytes.Buffer
	if err := WriteViolationWindow(&buf, tr, v, 10); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("window is not valid JSON: %v", err)
	}
	instants := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" {
			instants++
		}
	}
	// 10 seqs of context + the violation event itself.
	if instants != 11 {
		t.Errorf("window holds %d instants, want 11 (10 context + violation)", instants)
	}
}

// TestRunCellScratchReuseInvisible: single-JVM cells build their machines
// from pooled scratch storage, so a cell's storage was last used by
// whichever cell ran before it. Running the same cells forward and then in
// reverse hands every cell a different predecessor's scratch; the checked
// and bare digests must not notice. The slice mixes in multi-JVM cells
// (which run cold) and SMT cells, so pooled and unpooled machines and both
// topology shapes alternate on the same scratch. A last pass runs the
// cells from several goroutines at once, as simcheck's pool does, so the
// race detector sees the scratch pool shared.
func TestRunCellScratchReuseInvisible(t *testing.T) {
	const n = 16
	cells := make([]Cell, n)
	multi, smt := false, false
	for i := range cells {
		cells[i] = CellAt(42, i)
		multi = multi || cells[i].MultiJVM
		smt = smt || cells[i].Topo == "smt40"
	}
	if !multi || !smt {
		t.Fatalf("cells 0..%d lack a multi-JVM (%v) or SMT (%v) cell", n-1, multi, smt)
	}
	forward := make([]*CellResult, n)
	for i, c := range cells {
		forward[i] = RunCell(c)
	}
	same := func(pass string, i int, r *CellResult) {
		f := forward[i]
		if f.Failed() || r.Failed() {
			t.Errorf("forward: %s\n%s: %s", f.Summary(), pass, r.Summary())
			return
		}
		if r.Digest != f.Digest || r.BareDigest != f.BareDigest {
			t.Errorf("%s: digests depend on the predecessor's scratch: forward %s/%s, %s %s/%s",
				cells[i], short(f.Digest), short(f.BareDigest), pass, short(r.Digest), short(r.BareDigest))
		}
	}
	for i := n - 1; i >= 0; i-- {
		same("reverse", i, RunCell(cells[i]))
	}

	concurrent := make([]*CellResult, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				concurrent[i] = RunCell(cells[i])
			}
		}(w)
	}
	wg.Wait()
	for i, r := range concurrent {
		same("concurrent", i, r)
	}
}

// TestRunCellAllocBound: a warm single-JVM cell (checked run plus bare
// replay) must allocate well under what one full set of default event
// rings costs. A cell emits a few thousand events, so rings sized to what
// it emits and a recycled machine keep it far below the bound; allocating
// every layer's ring at DefaultSinkCap up front, or rebuilding both
// machines from nothing, does not.
func TestRunCellAllocBound(t *testing.T) {
	cell := CellAt(42, 0)
	if cell.MultiJVM {
		t.Fatalf("%s: want a single-JVM cell", cell)
	}
	if r := RunCell(cell); r.Failed() { // warm the scratch pool
		t.Fatal(r.Summary())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := RunCell(cell)
	runtime.ReadMemStats(&after)
	if r.Failed() {
		t.Fatal(r.Summary())
	}
	rings := uint64(len(evtrace.Layers())) * evtrace.DefaultSinkCap * uint64(unsafe.Sizeof(evtrace.Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= rings/4 {
		t.Errorf("warm cell allocated %d bytes, want < %d (a quarter of %d layers x %d-slot rings)",
			got, rings/4, len(evtrace.Layers()), evtrace.DefaultSinkCap)
	}
}

// BenchmarkRunCell runs one fixed sweep cell (checked run plus bare
// replay) per iteration; its B/op tracks what a fleet worker allocates per
// cell.
func BenchmarkRunCell(b *testing.B) {
	cell := CellAt(42, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := RunCell(cell); r.Failed() {
			b.Fatal(r.Summary())
		}
	}
}
