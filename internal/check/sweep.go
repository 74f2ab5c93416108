package check

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/affinity"
	"repro/internal/evtrace"
	"repro/internal/gclog"
	"repro/internal/jmutex"
	"repro/internal/jvm"
	"repro/internal/ostopo"
	"repro/internal/postmortem"
	"repro/internal/simkit"
	"repro/internal/taskq"
	"repro/internal/workload"
)

// Cell is one randomized configuration of the seed-sweep property harness:
// a (seed, topology, thread counts, policy knobs) point in the space the
// paper's experiments traverse. Cells are generated deterministically from
// a base seed, so a failing cell reproduces from its Index alone.
type Cell struct {
	Index int
	Seed  int64
	Topo  string // "paper20" | "smt40" | "small8"

	GCThreads int
	Mutators  int
	BusyLoops int
	MultiJVM  bool // run two JVMs sharing the machine (§5.7)

	Mutex        jmutex.Policy
	Steal        taskq.PolicyKind
	Affinity     affinity.Mode
	TaskAffinity bool
	FastTerm     bool
}

// String renders the cell compactly for failure reports.
func (c Cell) String() string {
	multi := ""
	if c.MultiJVM {
		multi = " multi-jvm"
	}
	return fmt.Sprintf(
		"cell %d: seed=%d topo=%s gc=%d mut=%d busy=%d%s mutex=%s steal=%s aff=%s taskaff=%v fastterm=%v",
		c.Index, c.Seed, c.Topo, c.GCThreads, c.Mutators, c.BusyLoops, multi,
		c.Mutex, c.Steal, c.Affinity, c.TaskAffinity, c.FastTerm)
}

// topology materializes the cell's named topology.
func (c Cell) topology() *ostopo.Topology {
	switch c.Topo {
	case "smt40":
		return ostopo.PaperTestbedSMT()
	case "small8":
		t, err := ostopo.New(8, 1, 2)
		if err != nil {
			panic(err)
		}
		return t
	default:
		return ostopo.PaperTestbed()
	}
}

var (
	cellTopos    = []string{"paper20", "paper20", "smt40", "small8"}
	cellMutexes  = []jmutex.Policy{jmutex.PolicyHotSpot, jmutex.PolicyHotSpot, jmutex.PolicyFairFIFO, jmutex.PolicyNoFastPath, jmutex.PolicyWakeAll}
	cellSteals   = []taskq.PolicyKind{taskq.KindBestOf2, taskq.KindSemiRandom, taskq.KindNUMARestricted}
	cellAffinity = []affinity.Mode{affinity.ModeNone, affinity.ModeStatic, affinity.ModeDynamic, affinity.ModeNUMANode}
)

// Cells derives n sweep cells from baseSeed. The derivation is pure: the
// same (baseSeed, n) always yields the same matrix, and cell i is
// independent of n (prefixes agree), so "-cells 32" smokes the head of the
// same sweep "-cells 256" runs in full.
func Cells(baseSeed int64, n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = CellAt(baseSeed, i)
	}
	return cells
}

// CellAt derives sweep cell i of the baseSeed space in O(1) — the same
// cell Cells(baseSeed, n)[i] yields for any n > i. The fleet coordinator
// leans on this: a shard [lo,hi) names its cells by index alone, so any
// worker process can materialize exactly its slice of a 100k-cell space
// without deriving (or even knowing) the rest.
func CellAt(baseSeed int64, i int) Cell {
	// One private generator per cell keeps prefix stability.
	rng := rand.New(rand.NewSource(baseSeed + int64(i)*1000003))
	c := Cell{
		Index:        i,
		Seed:         baseSeed + int64(i),
		Topo:         cellTopos[rng.Intn(len(cellTopos))],
		GCThreads:    2 + rng.Intn(15), // 2..16
		Mutators:     1 + rng.Intn(12), // 1..12
		Mutex:        cellMutexes[rng.Intn(len(cellMutexes))],
		Steal:        cellSteals[rng.Intn(len(cellSteals))],
		Affinity:     cellAffinity[rng.Intn(len(cellAffinity))],
		TaskAffinity: rng.Intn(2) == 1,
		FastTerm:     rng.Intn(2) == 1,
	}
	if rng.Intn(4) == 0 {
		c.BusyLoops = 1 + rng.Intn(4)
	}
	// Every eighth cell (on average) shares its machine between two
	// JVMs, exercising the multi-instance id/monitor namespacing.
	c.MultiJVM = rng.Intn(8) == 0
	return c
}

// CellResult is the outcome of running one cell through the harness.
type CellResult struct {
	Cell       Cell
	Events     uint64 // bus events validated in the checked run
	Violations []Violation
	Total      int    // violations including any past the retention cap
	Digest     string // SHA-256 of the checked run's observable output
	BareDigest string // same digest from the uninstrumented replay
	Err        error  // simulation-level failure (OOM, deadlock, panic)

	// Drops counts events the checked run's ring sinks discarded. The
	// checker and postmortem analyzer subscribe (they always see the whole
	// stream), but a nonzero count means the retained ring — the triage
	// window WriteViolationWindow exports — is incomplete, so the sweep
	// treats it as a failure: cells are sized to fit the default ring.
	Drops uint64

	// BlameViolations lists collections whose postmortem blame buckets do
	// not sum to their pause wall time — the attribution engine's own
	// invariant, checked on every cell of the sweep.
	BlameViolations []string

	// Pathology is the postmortem classifier's verdict for the checked run
	// (§3 taxonomy family, or "healthy"). Deterministic per cell, so the
	// fleet report can merge pathology counts across the whole sweep.
	Pathology string

	// Tracer retains the checked run's event bus when the cell failed, so
	// the caller can export a pre-violation window for Perfetto triage.
	Tracer *evtrace.Tracer
}

// Failed reports whether the cell found a problem of any sort.
func (r *CellResult) Failed() bool {
	return r.Total > 0 || r.Err != nil || r.Digest != r.BareDigest ||
		r.Drops > 0 || len(r.BlameViolations) > 0
}

// Summary renders the failure modes of one result.
func (r *CellResult) Summary() string {
	if !r.Failed() {
		return fmt.Sprintf("%s: ok (%d events)", r.Cell, r.Events)
	}
	s := fmt.Sprintf("%s: FAIL", r.Cell)
	if r.Err != nil {
		s += fmt.Sprintf("\n  run error: %v", r.Err)
	}
	if r.Digest != r.BareDigest {
		s += fmt.Sprintf("\n  determinism: checked run digest %s != bare digest %s",
			short(r.Digest), short(r.BareDigest))
	}
	if r.Drops > 0 {
		s += fmt.Sprintf("\n  evtrace: %d events dropped from the ring sinks (triage window incomplete)", r.Drops)
	}
	for _, v := range r.BlameViolations {
		s += "\n  postmortem: " + v
	}
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	if r.Total > len(r.Violations) {
		s += fmt.Sprintf("\n  ... %d more suppressed", r.Total-len(r.Violations))
	}
	return s
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// DefaultItems is the per-cell workload size RunCell simulates: lusearch
// shrunk far enough that a cell runs in tens of milliseconds while still
// triggering several full GC cycles.
const DefaultItems = 1500

// RunOptions tune how a sweep cell executes. The zero value reproduces
// RunCell's classic behaviour: the default workload size and a bare
// determinism replay.
type RunOptions struct {
	// Items overrides the cell workload's total item count (0 uses
	// DefaultItems). Fleet-scale sweeps shrink it to trade per-cell depth
	// for cell count; digests are only comparable at equal Items.
	Items int
	// SkipBare skips the uninstrumented replay. The determinism
	// differential is lost for that cell (BareDigest mirrors Digest), but
	// the cell costs one simulation instead of two — the fleet harness's
	// fast mode for very large sweeps, where cross-process digest
	// comparison still covers replay stability.
	SkipBare bool
}

// sweepProfile is the workload each cell runs (young-gen pressure scales
// with mutator count, so every cell still exercises several GCs).
func sweepProfile(items int) workload.Profile {
	p := workload.Lusearch()
	if items <= 0 {
		items = DefaultItems
	}
	p.TotalItems = items
	return p
}

// RunCell executes one cell twice — once instrumented (tracer + checker +
// heap verification) and once bare — and cross-checks the two: the checker
// must stay silent, and both runs must produce byte-identical observable
// output (the determinism differential; it simultaneously proves same-seed
// replay stability and that the checker/tracer never perturb a run).
func RunCell(cell Cell) *CellResult {
	return RunCellOpts(cell, RunOptions{})
}

// RunCellOpts is RunCell with explicit RunOptions.
func RunCellOpts(cell Cell, o RunOptions) *CellResult {
	res := &CellResult{Cell: cell}

	tr := tracerPool.Get().(*evtrace.Tracer)
	defer func() {
		// A failed cell hands its tracer to the caller for triage; only
		// a tracer that stays private goes back to the pool.
		if res.Tracer != tr {
			tr.Reset()
			tracerPool.Put(tr)
		}
	}()
	ck := New()
	ck.Attach(tr)
	an := postmortem.New()
	an.Attach(tr)
	checked, err := runCellOnce(cell, o.Items, tr)
	if err != nil {
		res.Err = err
		res.Tracer = tr
		return res
	}
	ck.Finish()
	an.Finish()
	res.Events = ck.EventsSeen()
	res.Violations = ck.Violations()
	res.Total = ck.Total()
	ex := an.Export()
	res.BlameViolations = ex.Verify()
	res.Pathology = ex.Pathology
	for _, d := range tr.Drops() {
		res.Drops += d
	}
	res.Digest = digestResults(checked)

	if o.SkipBare {
		res.BareDigest = res.Digest
		if res.Failed() {
			res.Tracer = tr
		}
		return res
	}
	bare, err := runCellOnce(cell, o.Items, nil)
	if err != nil {
		res.Err = fmt.Errorf("bare replay: %w", err)
		res.Tracer = tr
		return res
	}
	res.BareDigest = digestResults(bare)
	if res.Failed() {
		res.Tracer = tr
	}
	return res
}

// scratchPool recycles machine storage (event arena, runqueues, heap
// tables) across cell runs, single- and multi-JVM, checked and bare alike,
// so a sweep rebuilds it once per concurrent runner instead of twice per
// cell. A sync.Pool keeps RunCell safe for simcheck's parallel callers.
// Reuse is invisible in results (see jvm.Scratch).
var scratchPool = sync.Pool{New: func() any { return new(jvm.Scratch) }}

// tracerPool recycles checked runs' event buses. A tracer keeps its grown
// rings across Reset, so a warm cell emits without growing them again.
var tracerPool = sync.Pool{New: func() any { return evtrace.New(0) }}

// runCellOnce performs one simulation of the cell, optionally on a tracer.
// Panics (e.g. a tripped VerifyHeap assertion) surface as errors so the
// sweep reports the cell instead of dying.
func runCellOnce(cell Cell, items int, tr *evtrace.Tracer) (results []*jvm.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cfg := jvm.Config{
		Profile:        sweepProfile(items),
		Mutators:       cell.Mutators,
		GCThreads:      cell.GCThreads,
		Affinity:       cell.Affinity,
		TaskAffinity:   cell.TaskAffinity,
		Steal:          cell.Steal,
		FastTerminator: cell.FastTerm,
		MutexPolicy:    cell.Mutex,
		VerifyHeap:     true,
	}
	topo := cell.topology()
	const maxSim = 5 * 60 * simkit.Second
	sc := scratchPool.Get().(*jvm.Scratch)
	// Deferred so a panicking run still hands its scratch back: jvm.Scratch
	// reinitializes its tables on acquisition, so one abandoned mid-run is
	// safe to reuse.
	defer scratchPool.Put(sc)
	if cell.MultiJVM {
		cfgB := cfg
		cfgB.Mutators = 1 + cell.Mutators/2
		return jvm.RunMultiTraced(cell.Seed, topo, nil, cell.BusyLoops, maxSim, tr, sc, cfg, cfgB)
	}
	res, err := jvm.Run(jvm.RunSpec{
		Config: cfg, Topo: topo, Seed: cell.Seed,
		BusyLoops: cell.BusyLoops, MaxSim: maxSim, EvTracer: tr,
		Scratch: sc,
	})
	if err != nil {
		return nil, err
	}
	return []*jvm.Result{res}, nil
}

// digestResults hashes everything a run reports — the per-GC reports, lock
// and steal statistics, and the aggregate times — into one hex digest.
// Byte-identical digests across replays are the determinism property the
// harness enforces.
func digestResults(results []*jvm.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "total=%d gc=%d mutator=%d minor=%d major=%d ops=%.6f\n",
			r.TotalTime, r.GCTime, r.MutatorTime, r.MinorGCs, r.MajorGCs, r.ThroughputOPS)
		if err := gclog.WriteRunJSON(h, r.Reports, r.Monitor, r.Steal, nil); err != nil {
			fmt.Fprintf(h, "gclog error: %v\n", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteViolationWindow exports the slice of the cell's event bus leading up
// to (and including) the violation as Perfetto trace-event JSON: the
// pre-violation window one loads into ui.perfetto.dev to see what the
// scheduler, locks, and task queues were doing when the invariant broke.
// window is how many bus sequence numbers of context to keep (0 uses 400).
func WriteViolationWindow(w io.Writer, tr *evtrace.Tracer, v Violation, window uint64) error {
	if window == 0 {
		window = 400
	}
	lo := uint64(1)
	if v.Seq > window {
		lo = v.Seq - window
	}
	hi := v.Seq
	if hi == 0 { // Finish-time violation: export the tail of the run
		hi = ^uint64(0)
	}
	return evtrace.WritePerfettoWindow(w, tr, lo, hi)
}
