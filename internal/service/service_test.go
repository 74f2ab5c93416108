package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jvm"
)

func tinyScenario() Scenario {
	return Scenario{Benchmark: "lusearch", Items: 1500, Mutators: 4, GCThreads: 4, Seed: 7}
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A cache hit must return the byte-identical body of the cold run that
// populated it, flagged by the X-Gcsimd-Cache header.
func TestCacheHitByteIdenticalOverHTTP(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (string, []byte) {
		resp := postJSON(t, srv.URL+"/run", tinyScenario())
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get(HeaderDigest) == "" {
			t.Error("missing digest header")
		}
		return resp.Header.Get(HeaderCache), body
	}

	outcome1, cold := get()
	outcome2, warm := get()
	if outcome1 != string(OutcomeMiss) {
		t.Errorf("first request outcome = %q, want miss", outcome1)
	}
	if outcome2 != string(OutcomeHit) {
		t.Errorf("second request outcome = %q, want hit", outcome2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit body differs from cold run:\n%s\nvs\n%s", warm, cold)
	}

	var p Prediction
	if err := json.Unmarshal(cold, &p); err != nil {
		t.Fatalf("body is not a Prediction: %v", err)
	}
	if p.TotalMs <= 0 || p.MinorGCs == 0 || p.Digest == "" {
		t.Errorf("implausible prediction: %+v", p)
	}
}

// Identical concurrent scenarios must coalesce onto one simulation.
func TestInFlightCoalescing(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	const n = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, outcome, err := s.Run(context.Background(), tinyScenario())
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			outcomes[i], bodies[i] = outcome, body
		}(i)
	}
	wg.Wait()

	if got := s.runs.Load(); got != 1 {
		t.Errorf("%d identical concurrent scenarios ran %d simulations, want 1", n, got)
	}
	var miss, other int
	for i, o := range outcomes {
		if o == OutcomeMiss {
			miss++
		} else {
			other++
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	if miss != 1 {
		t.Errorf("%d misses, want exactly 1 (rest coalesced/hit)", miss)
	}
	_ = other
}

// The admission bound must shed load with ErrQueueFull (HTTP 429)
// instead of queueing without limit. Deterministic: wedge the in-flight
// table to capacity with jobs that never finish, then knock.
func TestQueueFullRejects(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueCap: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	wedge := func() {
		s.mu.Lock()
		s.inflight["wedge-a"] = &job{done: make(chan struct{})}
		s.inflight["wedge-b"] = &job{done: make(chan struct{})}
		s.mu.Unlock()
	}
	unwedge := func() {
		s.mu.Lock()
		delete(s.inflight, "wedge-a")
		delete(s.inflight, "wedge-b")
		s.mu.Unlock()
	}

	wedge()
	if _, _, err := s.Run(context.Background(), tinyScenario()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	resp := postJSON(t, srv.URL+"/run", tinyScenario())
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue over HTTP: status %d, want 429", resp.StatusCode)
	}
	if got := s.rejected.Load(); got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}

	unwedge()
	body, outcome, err := s.Run(context.Background(), tinyScenario())
	if err != nil {
		t.Fatalf("after queue drained: %v", err)
	}
	if outcome != OutcomeMiss || len(body) == 0 {
		t.Errorf("after queue drained: outcome %q, %d body bytes", outcome, len(body))
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTestService(t, Options{Timeout: time.Nanosecond})
	_, _, err := s.Run(context.Background(), tinyScenario())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if s.timeouts.Load() == 0 {
		t.Error("timeout not counted")
	}
}

func TestBadScenarioIs400(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for name, scn := range map[string]any{
		"unknown benchmark": Scenario{Benchmark: "nope"},
		"no benchmark":      Scenario{},
		"bad opt level":     Scenario{Benchmark: "lusearch", Optimizations: "warp-speed"},
		"unknown field":     map[string]any{"benchmark": "lusearch", "warp": 9},
		"too many mutators": Scenario{Benchmark: "lusearch", Mutators: 1 << 20},
	} {
		resp := postJSON(t, srv.URL+"/run", scn)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// An oversized request body is refused with 413 before it is decoded,
// even when it is valid JSON (here a valid scenario behind a run of
// whitespace), and runs nothing. The largest legitimate body — a sweep
// whose one axis has maxSweepCells maximal seeds — stays well under the
// limit.
func TestOversizedBodyIs413(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	pad := bytes.Repeat([]byte(" "), maxBodyBytes)
	for path, v := range map[string]any{
		"/run":   tinyScenario(),
		"/sweep": SweepRequest{Base: tinyScenario(), Seeds: []int64{1}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(append(pad, body...)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, len(pad)+len(body), resp.StatusCode)
		}
	}
	if n := s.runs.Load(); n != 0 {
		t.Errorf("oversized bodies ran %d simulations, want 0", n)
	}

	seeds := make([]int64, maxSweepCells)
	for i := range seeds {
		seeds[i] = -1 << 63
	}
	largest, err := json.Marshal(SweepRequest{Base: tinyScenario(), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(largest) > maxBodyBytes/4 {
		t.Errorf("largest legitimate sweep body is %d bytes, too close to the %d-byte limit", len(largest), maxBodyBytes)
	}
}

// A sweep streams one NDJSON line per grid cell; rerunning the sweep
// serves every cell from the cache with byte-identical predictions.
func TestSweepNDJSONAndCacheReplay(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := SweepRequest{
		Base:          tinyScenario(),
		Mutators:      []int{2, 4},
		Optimizations: []string{"none", "all"},
	}
	collect := func() map[int]SweepCell {
		resp := postJSON(t, srv.URL+"/sweep", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("sweep status %d: %s", resp.StatusCode, b)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		lines := map[int]SweepCell{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var cell SweepCell
			if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if cell.Error != "" {
				t.Errorf("cell %d failed: %s", cell.Index, cell.Error)
			}
			lines[cell.Index] = cell
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return lines
	}

	first := collect()
	if len(first) != 4 {
		t.Fatalf("sweep returned %d cells, want 4", len(first))
	}
	for i := 0; i < 4; i++ {
		if _, ok := first[i]; !ok {
			t.Fatalf("cell %d missing from sweep", i)
		}
		if first[i].Of != 4 {
			t.Errorf("cell %d Of = %d, want 4", i, first[i].Of)
		}
	}
	// Distinct cells are distinct configurations.
	if bytes.Equal(first[0].Prediction, first[3].Prediction) {
		t.Error("corner cells returned identical predictions")
	}

	second := collect()
	for i := 0; i < 4; i++ {
		if second[i].Cache != string(OutcomeHit) {
			t.Errorf("replayed cell %d outcome = %q, want hit", i, second[i].Cache)
		}
		if !bytes.Equal(first[i].Prediction, second[i].Prediction) {
			t.Errorf("cell %d replay differs:\n%s\nvs\n%s", i, second[i].Prediction, first[i].Prediction)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	postJSON(t, srv.URL+"/run", tinyScenario()).Body.Close()
	postJSON(t, srv.URL+"/run", tinyScenario()).Body.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, m := range metrics {
		byName[m.Name] = m.Value
	}
	if byName["service.requests"] != 2 || byName["service.cache_hits"] != 1 || byName["service.runs"] != 1 {
		t.Errorf("counters wrong: %+v", byName)
	}
	for _, want := range []string{"service.latency_p50_ms", "service.latency_p99_ms", "service.queue_depth", "service.workers"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("metric %s missing", want)
		}
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hresp.StatusCode)
	}
}

// The sweep grid derivation is row-major with the last axis fastest, and
// oversize grids are client errors.
func TestSweepCellDerivation(t *testing.T) {
	req := SweepRequest{
		Base:     Scenario{Benchmark: "lusearch"},
		Mutators: []int{1, 2},
		Seeds:    []int64{10, 20, 30},
	}
	cells := req.Cells()
	if len(cells) != 6 {
		t.Fatalf("expanded to %d cells, want 6", len(cells))
	}
	want := []struct {
		mut  int
		seed int64
	}{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for i, w := range want {
		if cells[i].Mutators != w.mut || cells[i].Seed != w.seed {
			t.Errorf("cell %d = (mut=%d seed=%d), want (%d, %d)",
				i, cells[i].Mutators, cells[i].Seed, w.mut, w.seed)
		}
	}

	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	huge := SweepRequest{Base: Scenario{Benchmark: "lusearch"}}
	for i := 0; i < 5000; i++ {
		huge.Seeds = append(huge.Seeds, int64(i))
	}
	resp := postJSON(t, srv.URL+"/sweep", huge)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "split") {
		t.Errorf("oversize sweep: status %d body %s", resp.StatusCode, b)
	}
}

// An oversized grid is refused before it is expanded: a small body whose
// five 8-value axes ask for 32,768 cells is answered 400 while the server
// allocates almost nothing for it (expanding it first costs megabytes of
// index slices and scenarios).
func TestOversizeSweepRejectedBeforeExpansion(t *testing.T) {
	s := newTestService(t, Options{})
	h := s.Handler()
	axis := []int{1, 2, 3, 4, 5, 6, 7, 8}
	req := SweepRequest{
		Base:     tinyScenario(),
		Mutators: axis, GCThreads: axis, HeapMB: axis,
		Optimizations: []string{"none", "all", "none", "all", "none", "all", "none", "all"},
		Seeds:         []int64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	if !req.exceedsMaxCells() {
		t.Fatal("a 32768-cell grid does not exceed the cell limit")
	}
	if at := (SweepRequest{Mutators: axis, GCThreads: axis, HeapMB: axis, Seeds: req.Seeds}); at.exceedsMaxCells() {
		t.Fatal("a grid of exactly maxSweepCells cells exceeds the cell limit")
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, hreq)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("32768-cell sweep: status %d body %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("rejecting a %d-byte oversize sweep allocated %d bytes, want < %d", len(body), got, 64<<10)
	}
	if n := s.runs.Load(); n != 0 {
		t.Errorf("oversize sweep ran %d simulations, want 0", n)
	}
}

// A grid whose cell count overflows an int (five 8,192-value axes, 2^65
// cells) is too large, not a wrapped — possibly zero — count.
func TestSweepCellCountSaturates(t *testing.T) {
	const n = 8192
	req := SweepRequest{
		Base:     tinyScenario(),
		Mutators: make([]int, n), GCThreads: make([]int, n), HeapMB: make([]int, n),
		Optimizations: make([]string, n), Seeds: make([]int64, n),
	}
	if !req.exceedsMaxCells() {
		t.Fatal("a 2^65-cell grid does not exceed the cell limit")
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxBodyBytes {
		t.Fatalf("test body is %d bytes, over the %d-byte limit", len(body), maxBodyBytes)
	}
	rec := httptest.NewRecorder()
	newTestService(t, Options{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("2^65-cell sweep: status %d body %s", rec.Code, rec.Body)
	}
}

// Seed 0 and seed 42 must be distinct cache keys end to end (the
// service-level face of the core seed-aliasing fix).
func TestServiceSeedZeroDistinct(t *testing.T) {
	s := newTestService(t, Options{})
	scn0 := tinyScenario()
	scn0.Seed = 0
	scn42 := tinyScenario()
	scn42.Seed = 42

	b0, o0, err := s.Run(context.Background(), scn0)
	if err != nil {
		t.Fatal(err)
	}
	b42, o42, err := s.Run(context.Background(), scn42)
	if err != nil {
		t.Fatal(err)
	}
	if o0 != OutcomeMiss || o42 != OutcomeMiss {
		t.Fatalf("outcomes %q/%q: seed 42 aliased onto seed 0's cache entry", o0, o42)
	}
	var p0, p42 Prediction
	if err := json.Unmarshal(b0, &p0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b42, &p42); err != nil {
		t.Fatal(err)
	}
	if p0.Digest == p42.Digest {
		t.Fatalf("seed 0 and 42 share digest %s", p0.Digest)
	}
	if fmt.Sprintf("%.6f", p0.TotalMs) == fmt.Sprintf("%.6f", p42.TotalMs) &&
		p0.GCMs == p42.GCMs && p0.MinorGCs == p42.MinorGCs {
		t.Errorf("seed 0 and 42 produced identical predictions: %+v", p0)
	}
}

// TestPanickedSimulationReturnsScratch is the regression test for the
// scratch leak: a panicking simulation used to skip PutScratch (it was
// called inline after jvm.Run), stranding the worker's warm arena. The
// deferred return must leave the free-list whole.
func TestPanickedSimulationReturnsScratch(t *testing.T) {
	old := simulate
	t.Cleanup(func() { simulate = old })
	simulate = func(jvm.RunSpec) (*jvm.Result, error) { panic("injected simulation panic") }

	s := newTestService(t, Options{Workers: 1})
	_, _, err := s.Run(context.Background(), tinyScenario())
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a simulation-panicked error", err)
	}
	if sc := s.pool.GetScratch(); sc == nil {
		t.Fatal("panicked simulation stranded its scratch: free-list is empty")
	}
}

// TestSweepClientDisconnectStopsAdmission asserts the /sweep cancellation
// contract: once the client hangs up mid-stream, the pool must stop
// receiving new cells. (Cells admitted before the disconnect may finish
// and cache — only further admission must stop.)
func TestSweepClientDisconnectStopsAdmission(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueCap: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// 48 distinct cells (distinct seeds → distinct digests, no cache
	// help); with one worker the sweep takes long enough to disconnect
	// mid-stream.
	req := SweepRequest{Base: tinyScenario()}
	for seed := int64(1); seed <= 48; seed++ {
		req.Seeds = append(req.Seeds, seed)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read one streamed line, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first sweep line: %v", err)
	}
	cancel()

	// Wait for the already-admitted tail to drain: the service must go
	// idle AND the run counter must stop moving (a job leaves the
	// inflight map just before its counter bump, so idleness alone can
	// race one final increment). Once stable, no new cells reached the
	// pool — and far fewer than the full grid ran.
	deadline := time.Now().Add(10 * time.Second)
	runs := s.runs.Load()
	stableSince := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		s.mu.Lock()
		idle := len(s.inflight) == 0 && len(s.queue) == 0
		s.mu.Unlock()
		if cur := s.runs.Load(); cur != runs {
			runs = cur
			stableSince = time.Now()
			continue
		}
		if idle && time.Since(stableSince) >= 500*time.Millisecond {
			break
		}
	}
	if time.Now().After(deadline) {
		t.Fatalf("pool never went quiescent after disconnect: runs still moving at %d", runs)
	}
	if runs >= 48 {
		t.Fatalf("all %d cells simulated despite mid-stream disconnect", runs)
	}
}

// Every field that sizes a simulation is bounded before the scenario can
// take a worker: thread counts by the simulated machine, items by the
// benchmark's full-size run, requests and clients by a full-size server
// run, the heap by twice Fig. 14's largest. Every scenario the repository
// itself sends stays accepted.
func TestScenarioLimits(t *testing.T) {
	for _, tc := range []struct {
		name string
		scn  Scenario
		ok   bool
	}{
		{"loadgen and perfbench shape", tinyScenario(), true},
		{"selftest sweep cell", Scenario{Benchmark: "lusearch", Items: 1500, Mutators: 2, GCThreads: 2, Seed: 1}, true},
		{"heaptuning largest heap", Scenario{Benchmark: "lusearch", Mutators: 16, HeapMB: 900, Optimizations: "all", Seed: 31}, true},
		{"fig14 kmeans 32 GiB", Scenario{Benchmark: "kmeans(large)", Mutators: 16, HeapMB: 32 << 10}, true},
		{"fig3d cassandra", Scenario{Benchmark: "cassandra", Mutators: 16, Clients: 256, Requests: 20000}, true},
		{"gc-stress 40 GC threads", Scenario{Benchmark: "lusearch", Items: 15000, Mutators: 16, GCThreads: 40, HeapMB: 15}, true},
		{"fig15 busy loops", Scenario{Benchmark: "lusearch", Mutators: 16, BusyLoops: 10}, true},
		{"full-size lusearch", Scenario{Benchmark: "lusearch", Items: 60000}, true},
		{"4 threads per CPU", Scenario{Benchmark: "lusearch", Mutators: 80, GCThreads: 80, BusyLoops: 80}, true},
		{"4 threads per SMT CPU", Scenario{Benchmark: "lusearch", Mutators: 160, SMT: true}, true},

		{"negative mutators", Scenario{Benchmark: "lusearch", Mutators: -1}, false},
		{"mutators over 4 per CPU", Scenario{Benchmark: "lusearch", Mutators: 81}, false},
		{"mutators over 4 per SMT CPU", Scenario{Benchmark: "lusearch", Mutators: 161, SMT: true}, false},
		{"huge gc_threads", Scenario{Benchmark: "lusearch", GCThreads: 1 << 30}, false},
		{"busy_loops over 4 per CPU", Scenario{Benchmark: "lusearch", BusyLoops: 81}, false},
		{"items over the full run", Scenario{Benchmark: "lusearch", Items: 60001}, false},
		{"items on a server benchmark", Scenario{Benchmark: "cassandra", Items: 1}, false},
		{"requests over a full run", Scenario{Benchmark: "cassandra", Requests: 20001}, false},
		{"clients over a full run", Scenario{Benchmark: "cassandra", Clients: 20001}, false},
		{"heap over 64 GiB", Scenario{Benchmark: "kmeans(large)", HeapMB: 64<<10 + 1}, false},
		{"heap at MaxInt", Scenario{Benchmark: "lusearch", HeapMB: int(^uint(0) >> 1)}, false},
	} {
		_, err := tc.scn.Config()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.scn)
		}
	}
}

// blockSimulate replaces the simulation with one that reports each run's
// seed on started and then waits for release. Its cleanup releases every
// run, closes s and only then restores the real simulation, so no worker
// reads simulate while it is being restored.
func blockSimulate(t *testing.T, s *Service) (started <-chan int64, release func()) {
	t.Helper()
	old := simulate
	ch := make(chan int64, 16) // more than any test starts, so a report never blocks a worker
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	simulate = func(spec jvm.RunSpec) (*jvm.Result, error) {
		ch <- spec.Seed
		<-gate
		return &jvm.Result{Benchmark: "blocked"}, nil
	}
	t.Cleanup(func() {
		release()
		s.Close()
		simulate = old
	})
	return ch, release
}

func seeded(seed int64) Scenario {
	scn := tinyScenario()
	scn.Seed = seed
	return scn
}

type runResult struct {
	body []byte
	err  error
}

// runAsync starts s.Run(scn) and delivers its result on the channel.
func runAsync(s *Service, scn Scenario) <-chan runResult {
	ch := make(chan runResult, 1)
	go func() {
		body, _, err := s.Run(context.Background(), scn)
		ch <- runResult{body, err}
	}()
	return ch
}

func awaitStart(t *testing.T, started <-chan int64, seed int64) {
	t.Helper()
	select {
	case got := <-started:
		if got != seed {
			t.Fatalf("simulation of seed %d started, want seed %d", got, seed)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("simulation of seed %d did not start within 5 s", seed)
	}
}

func awaitResult(t *testing.T, res <-chan runResult) {
	t.Helper()
	select {
	case r := <-res:
		if r.err != nil || len(r.body) == 0 {
			t.Fatalf("waiter got %d body bytes, err %v", len(r.body), r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter got no answer within 5 s")
	}
}

// awaitInflight waits until n scenarios are admitted and unfinished.
func awaitInflight(t *testing.T, s *Service, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		got := len(s.inflight)
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d scenarios in flight after 5 s, want %d", got, n)
		}
	}
}

// A free worker takes the next admitted scenario while another worker is
// still simulating: B must start while A is blocked.
func TestFreeWorkerTakesNextScenario(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	started, release := blockSimulate(t, s)
	a := runAsync(s, seeded(1))
	awaitStart(t, started, 1)
	b := runAsync(s, seeded(2))
	awaitStart(t, started, 2)
	release()
	awaitResult(t, a)
	awaitResult(t, b)
}

// With one job running and one queued, queue_depth reads 2 (each admitted
// job counted once), and the queued job's admission wait reaches
// service.queue_wait_ms in both exposition formats.
func TestQueueDepthAndWaitMetrics(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	started, release := blockSimulate(t, s)
	a := runAsync(s, seeded(1))
	awaitStart(t, started, 1)
	b := runAsync(s, seeded(2))
	awaitInflight(t, s, 2)
	metric := func(name string) (float64, bool) {
		for _, m := range s.Metrics() {
			if m.Name == name {
				return m.Value, true
			}
		}
		return 0, false
	}
	if depth, _ := metric("service.queue_depth"); depth != 2 {
		t.Errorf("queue_depth with 1 running and 1 queued = %v, want 2", depth)
	}

	const held = 30 * time.Millisecond
	time.Sleep(held)
	release()
	awaitResult(t, a)
	awaitResult(t, b)
	if n, _ := metric("service.queue_wait_ms.count"); n != 2 {
		t.Errorf("queue_wait_ms.count = %v, want 2", n)
	}
	if sum, _ := metric("service.queue_wait_ms.sum"); sum < float64(held)/1e6 {
		t.Errorf("queue_wait_ms.sum = %v ms, want at least the %v the second job waited", sum, held)
	}
	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`service_queue_wait_ms{quantile="0.99"}`, "service_queue_wait_ms_count 2"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus text lacks %q:\n%s", want, prom.String())
		}
	}
}

// Close with queued jobs lets every admitted job finish and every waiter
// get its body, and returns only once all of them have run.
func TestCloseDrainsQueuedJobs(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	started, release := blockSimulate(t, s)
	var waiters []<-chan runResult
	waiters = append(waiters, runAsync(s, seeded(1)))
	awaitStart(t, started, 1)
	waiters = append(waiters, runAsync(s, seeded(2)), runAsync(s, seeded(3)))
	awaitInflight(t, s, 3)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while admitted jobs were still blocked")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5 s of the jobs finishing")
	}
	if got := s.runs.Load(); got != 3 {
		t.Errorf("Close returned after %d of 3 admitted jobs ran", got)
	}
	for _, w := range waiters {
		awaitResult(t, w)
	}
	if _, _, err := s.Run(context.Background(), seeded(4)); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close: err = %v, want ErrClosed", err)
	}
}

// Workers waiting for a job are idle, not busy: a 2-worker service that
// ran one tiny scenario and then sat idle reports worker_busy_frac well
// under 1, also after Close has ended the workers.
func TestIdleWorkersAreNotBusy(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	if _, _, err := s.Run(context.Background(), tinyScenario()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	s.Close()
	for _, m := range s.Metrics() {
		if m.Name == "service.worker_busy_frac" {
			if m.Value >= 0.5 {
				t.Errorf("worker_busy_frac = %.2f after one tiny run and 200 ms idle, want well under 1", m.Value)
			}
			return
		}
	}
	t.Fatal("service.worker_busy_frac missing")
}

// BenchmarkServiceCold is the service's cold path end to end: b.N
// distinct scenarios (the load generator's shape, distinct seeds, so every
// one is a simulation) through Service.Run from Workers concurrent
// callers. It reports cold scenarios per second.
func BenchmarkServiceCold(b *testing.B) {
	s := New(Options{})
	defer s.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for range s.pool.Workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if _, out, err := s.Run(context.Background(), seeded(i)); err != nil || out != OutcomeMiss {
					b.Errorf("scenario %d: outcome %q, err %v", i, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}
