package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jvm"
	"repro/internal/runner"
	"repro/internal/taskq"
)

func TestNearestRankPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for _, w := range workloads {
		p := tailPercentile(w.minOps)
		if beyond := w.minOps - nearestRank(p, w.minOps); beyond < 10 {
			t.Errorf("%s: p%g of %d samples leaves %d beyond, want >= 10", w.name, p, w.minOps, beyond)
		}
	}
}

func TestZipfSequenceIsSeeded(t *testing.T) {
	a, b := whatifSequence(7, 5000), whatifSequence(7, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, whatifSequence(8, 5000)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	if !reflect.DeepEqual(whatifScenarios(7), whatifScenarios(7)) {
		t.Fatal("same seed gave different scenario populations")
	}
	counts := make([]int, whatifPopulation)
	sweeps := 0
	for _, r := range a {
		if r.Scenario < 0 || r.Scenario >= whatifPopulation {
			t.Fatalf("scenario index %d out of range", r.Scenario)
		}
		counts[r.Scenario]++
		if r.Sweep {
			sweeps++
		}
	}
	if counts[0] <= counts[whatifPopulation-1] {
		t.Errorf("not skewed: head %d, tail %d", counts[0], counts[whatifPopulation-1])
	}
	if sweeps == 0 || sweeps > len(a)/5 {
		t.Errorf("%d sweeps in %d requests, want a small minority", sweeps, len(a))
	}
}

// pb is a minimal protobuf encoder for building a fixed profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}

func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func (p *pb) msg(field int, build func(m *pb)) {
	var m pb
	build(&m)
	p.bytes(field, m.Bytes())
}

func (p *pb) packed(field int, vs ...uint64) {
	var m pb
	for _, v := range vs {
		m.varint(v)
	}
	p.bytes(field, m.Bytes())
}

// fixedProfile encodes a CPU profile with samples/count and cpu/nanoseconds
// values. Location 4 holds an inlined heap frame inside a simkit frame, so
// its leaf is heap.
func fixedProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/heap.(*Heap).alloc", "runtime.mallocgc",
		"net/http.(*conn).serve", "repro/internal/simkit.(*Sim).Step"}
	var p pb
	p.msg(1, func(m *pb) { m.uint(1, 1); m.uint(2, 2) })
	p.msg(1, func(m *pb) { m.uint(1, 3); m.uint(2, 4) })
	sample := func(loc, cpu uint64) {
		p.msg(2, func(m *pb) { m.packed(1, loc, 3); m.packed(2, 1, cpu) })
	}
	sample(1, 30e6) // heap
	sample(2, 10e6) // runtime -> other
	sample(3, 20e6) // net/http -> http
	sample(4, 40e6) // inlined heap inside simkit -> heap
	for loc, fn := range []uint64{1, 2, 3} {
		id := uint64(loc + 1)
		p.msg(4, func(m *pb) { m.uint(1, id); m.msg(4, func(l *pb) { l.uint(1, fn); l.uint(2, 10) }) })
	}
	p.msg(4, func(m *pb) {
		m.uint(1, 4)
		m.msg(4, func(l *pb) { l.uint(1, 1) })
		m.msg(4, func(l *pb) { l.uint(1, 4) })
	})
	for id, name := range []uint64{5, 6, 7, 8} {
		fid := uint64(id + 1)
		p.msg(5, func(m *pb) { m.uint(1, fid); m.uint(2, name) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestProfileAggregatesByLeafModule(t *testing.T) {
	prof := newModuleProfile()
	if err := prof.addProfile(fixedProfile(t)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		by   map[string]float64
		want map[string]float64
	}{
		// The runtime sample's caller is net/http: other by leaf, http
		// when charged to the calling module.
		{"self", prof.self, map[string]float64{"heap": 0.7, "other": 0.1, "http": 0.2, "simkit": 0}},
		{"charged", prof.charged, map[string]float64{"heap": 0.7, "other": 0, "http": 0.3, "simkit": 0}},
	} {
		fr := fractions(c.by)
		var sum float64
		for _, v := range fr {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s fractions sum to %g, want 1", c.kind, sum)
		}
		for m, w := range c.want {
			if math.Abs(fr[m]-w) > 1e-12 {
				t.Errorf("%s %s = %g, want %g", c.kind, m, fr[m], w)
			}
		}
	}
	if err := prof.addProfile([]byte("not a profile")); err == nil {
		t.Error("garbage profile accepted")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/pscavenge.(*Engine).minor": "pscavenge",
		"repro/internal/taskq/sub.F":               "taskq",
		"repro/internal/cmdutil.Exit":              "other",
		"internal/runtime/atomic.Load":             "other",
		"net/http.(*conn).serve":                   "http",
		"net.(*netFD).Read":                        "other",
		"math/rand.(*Rand).Int63":                  "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSpanSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	l := &spanLog{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 30 * ms, End: 70 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Name: "child", Start: 90 * ms, End: 120 * ms}, // clipped
	}}
	for _, s := range l.summary() {
		if s.Name == "parent" && s.Self != 30*ms {
			t.Errorf("parent self = %v, want 30ms", s.Self)
		}
		if s.Name == "child" && (s.Count != 3 || s.Self != s.Total) {
			t.Errorf("child stats = %+v", s)
		}
	}
	var nilLog *spanLog
	nilLog.end(nilLog.begin("x", open{}))
	if nilLog.len() != 0 {
		t.Error("nil span log recorded a span")
	}
}

func TestGoldenPerturbationFails(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := gateBytes("render", golden, golden); err != nil {
		t.Fatalf("identical bytes failed the gate: %v", err)
	}
	bad := append([]byte(nil), golden...)
	bad[len(bad)/2] ^= 1
	if err := gateBytes("render", bad, golden); err == nil {
		t.Fatal("one-byte perturbation passed the golden gate")
	}
	if err := gateBytes("render", golden[:len(golden)-1], golden); err == nil {
		t.Fatal("truncated output passed the golden gate")
	}
}

func TestPassTaskCountGate(t *testing.T) {
	first := int64(-1)
	if err := gateTasks(paperCells, &first); err != nil || first != paperCells {
		t.Fatalf("first pass: err %v, first %d", err, first)
	}
	if err := gateTasks(paperCells, &first); err != nil {
		t.Fatalf("same task count failed the gate: %v", err)
	}
	if err := gateTasks(paperCells+1, &first); err == nil {
		t.Fatal("a pass with one more task passed the gate")
	}
}

func perturbHex(s string) string {
	b := []byte(s)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	return string(b)
}

func TestDigestPerturbationFails(t *testing.T) {
	mk := func(gc int) []*jvm.Result {
		return []*jvm.Result{{MinorGCs: gc, Steal: taskq.NewStats(2)}}
	}
	r := &round{}
	want := ""
	if err := gcStressGate(r, mk(3), []error{nil}, &want); err != nil || want == "" {
		t.Fatalf("first pass: err=%v want=%q", err, want)
	}
	if err := gcStressGate(r, mk(3), []error{nil}, &want); err != nil {
		t.Fatalf("agreeing pass failed: %v", err)
	}
	if err := gcStressGate(r, mk(4), []error{nil}, &want); err == nil {
		t.Fatal("different results passed the digest gate")
	}
	bad := perturbHex(want)
	if err := gcStressGate(r, mk(3), []error{nil}, &bad); err == nil {
		t.Fatal("perturbed recorded digest passed")
	}
	if err := gcStressGate(r, mk(3), []error{jvm.ErrOutOfMemory}, &want); err == nil {
		t.Fatal("out-of-memory cell passed")
	}

	rep := &fleet.Report{SweepDigest: fleetDigest}
	w := fleetDigest
	if err := fleetGate(rep, &w); err != nil {
		t.Fatalf("recorded sweep digest failed: %v", err)
	}
	w = perturbHex(fleetDigest)
	if err := fleetGate(rep, &w); err == nil {
		t.Fatal("perturbed sweep digest passed")
	}
	w = fleetDigest
	if err := fleetGate(&fleet.Report{SweepDigest: fleetDigest, Violations: 1}, &w); err == nil {
		t.Fatal("sweep with a violation passed")
	}
}

// TestRecordedDigestsMatchSimulation reruns the default-seed cell sets
// in process and checks the recorded digests against them.
func TestRecordedDigestsMatchSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the gc-stress pass and the fleet sweep cells")
	}
	cfgs, err := gcStressConfigs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(0)
	h := sha256.New()
	for i, cfg := range cfgs {
		spec, err := core.BuildRunSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runCell(pool, spec)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		gcStressCellDigest(h, i, res)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != gcStressDigest {
		t.Errorf("gc-stress digest %s, recorded %s", got, gcStressDigest)
	}

	run := fleet.CheckRunner(defaultSeed, check.RunOptions{})
	recs := make([]fleet.CellRecord, fleetCells)
	pool.ForEach(fleetCells, func(i int) {
		rec, err := run(i, nil)
		if err != nil {
			rec = fleet.CellRecord{Index: i, Failed: true, Summary: err.Error()}
		}
		recs[i] = rec
	})
	rep := fleet.BuildReport(defaultSeed, fleetCells, 0, true, recs)
	w := fleetDigest
	if err := fleetGate(rep, &w); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics()) {
		t.Errorf("per_layer differs from perLayerMetrics()")
	}
}

func TestCompareRefusesCrossHost(t *testing.T) {
	res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"ops_per_s": {10, "1/s"}}}
	a := record{Workload: "gc-stress", Host: host{CPU: "A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1"}, Result: res}
	b := a
	b.Host.CPU = "B"
	var out bytes.Buffer
	if err := compareRecords(&out, []record{a}, []record{b}); !errors.Is(err, errCrossHost) {
		t.Fatalf("cross-host compare: err = %v, want errCrossHost", err)
	}
	out.Reset()
	if err := compareRecords(&out, []record{a}, []record{a}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ops_per_s") {
		t.Errorf("compare output lacks the metric:\n%s", out.String())
	}
}
