package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

const (
	// whatifPopulation distinct scenarios against an LRU of
	// whatifCacheSize entries: the working set is larger than the cache,
	// so a Zipf stream mixes hits with cold runs.
	whatifPopulation = 600
	whatifCacheSize  = 256
	// whatifZipfS is the Zipf exponent of scenario popularity.
	whatifZipfS = 1.1
	// whatifSweepEvery: one request in this many is a small POST /sweep.
	whatifSweepEvery = 20
	// whatifRequests is the length of the generated request sequence;
	// clients wrap around if a run outlasts it.
	whatifRequests = 200000
	// whatifWindow is one round of closed-loop traffic.
	whatifWindow = time.Second
)

// whatifRequest is one generated request: a scenario index and whether
// it is a sweep around that scenario.
type whatifRequest struct {
	Scenario int
	Sweep    bool
}

// whatifScenarios derives the scenario population from the seed. Every
// scenario has the shape gcsimd's own load generator posts (cmd/gcsimd
// scenarioBody: lusearch, 1500 items, 4 mutators, 4 GC threads) and a
// distinct simulation seed, so each is a distinct simulation of the same
// cost; the popularity skew, the population and the cache size are the
// ones the benchmark's design probe used.
func whatifScenarios(seed int64) []service.Scenario {
	out := make([]service.Scenario, whatifPopulation)
	for i := range out {
		out[i] = service.Scenario{
			Benchmark: "lusearch",
			Items:     1500,
			Mutators:  4,
			GCThreads: 4,
			Seed:      seed*1_000_003 + int64(i),
		}
	}
	return out
}

// whatifSequence derives the request sequence: Zipf-distributed scenario
// indexes, every whatifSweepEvery-th request on average a sweep.
func whatifSequence(seed int64, n int) []whatifRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(rng, whatifZipfS, 1, whatifPopulation-1)
	out := make([]whatifRequest, n)
	for i := range out {
		out[i] = whatifRequest{Scenario: int(z.Uint64()), Sweep: rng.Intn(whatifSweepEvery) == 0}
	}
	return out
}

// whatifServer is the system under test: a service behind its HTTP
// handler on a loopback listener, plus the client that drives it.
type whatifServer struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	client *http.Client
	done   chan struct{}
	runs   [][]byte // pre-encoded POST /run bodies, per scenario
	sweeps [][]byte // pre-encoded POST /sweep bodies, per scenario
	seq    []whatifRequest
}

func startWhatif(seed int64, workers int) (*whatifServer, error) {
	scns := whatifScenarios(seed)
	w := &whatifServer{
		seq:  whatifSequence(seed, whatifRequests),
		done: make(chan struct{}),
	}
	for _, s := range scns {
		run, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		sweep, err := json.Marshal(service.SweepRequest{Base: s, Optimizations: []string{"none", "all"}})
		if err != nil {
			return nil, err
		}
		w.runs = append(w.runs, run)
		w.sweeps = append(w.sweeps, sweep)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.svc = service.New(service.Options{Workers: workers, CacheSize: whatifCacheSize})
	w.srv = &http.Server{Handler: w.svc.Handler()}
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	go func() {
		defer close(w.done)
		w.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := w.client.Get(w.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// close stops the server, waits for it and drains the service.
func (w *whatifServer) close() {
	w.srv.Close()
	<-w.done
	w.client.CloseIdleConnections()
	w.svc.Close()
}

// bodies remembers the first body seen for each digest; every later body
// for that digest, hit or cold, must be byte-identical.
type bodies struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *bodies) check(digest string, body []byte) error {
	if digest == "" {
		return errors.New("response carries no digest")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, ok := b.m[digest]
	if !ok {
		b.m[digest] = append([]byte(nil), body...)
		return nil
	}
	if !bytes.Equal(prev, body) {
		return fmt.Errorf("body for digest %.12s differs from the first one served", digest)
	}
	return nil
}

// runWhatif drives the service with b.workers closed-loop clients that
// walk one shared, seeded request sequence, in one-second rounds.
func runWhatif(b *bench) error {
	var w *whatifServer
	closeFn, err := b.setup(func() (func(), error) {
		s, err := startWhatif(b.seed, b.workers)
		if err != nil {
			return nil, err
		}
		w = s
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()

	seen := &bodies{m: map[string][]byte{}}
	var next atomic.Int64
	samples := map[string][]float64{}
	var samplesMu sync.Mutex
	keep := func(name string, d time.Duration) {
		samplesMu.Lock()
		samples[name] = append(samples[name], float64(d)/float64(time.Millisecond))
		samplesMu.Unlock()
	}
	err = b.rounds(func(r *round) error {
		end := time.Now().Add(whatifWindow)
		var wg sync.WaitGroup
		for c := 0; c < b.workers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					req := w.seq[int(next.Add(1)-1)%len(w.seq)]
					sp := r.spans.begin("http.roundtrip", open{})
					t0 := time.Now()
					var outcome string
					var err error
					if req.Sweep {
						err = w.sweep(req.Scenario, seen)
						outcome = "sweep"
					} else {
						outcome, err = w.run(req.Scenario, seen)
					}
					d := time.Since(t0)
					r.spans.end(sp)
					r.gate(err)
					if err != nil {
						continue
					}
					r.done(1)
					if outcome != "sweep" {
						r.latency(d)
					}
					keep(outcome, d)
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	client := func(name string, p float64) float64 { return percentile(sortedCopy(samples[name]), p) }
	b.layer["client.hit_p50_ms"] = client("hit", 50)
	b.layer["client.cold_p50_ms"] = client("miss", 50)
	b.layer["client.sweep_p50_ms"] = client("sweep", 50)
	b.layer["client.run_p99_ms"] = percentile(sortedCopy(append(b.modes[0].lat, b.modes[1].lat...)), 99)
	server := map[string]float64{}
	for _, m := range w.svc.Metrics() {
		server[m.Name] = m.Value
	}
	if req := server["service.requests"]; req > 0 {
		b.layer["service.hit_frac"] = server["service.cache_hits"] / req
	}
	for _, k := range []string{"service.coalesced", "service.runs", "service.rejected", "service.timeouts", "service.worker_busy_frac"} {
		b.layer[k] = server[k]
	}
	b.layer["service.hit_p50_ms"] = server["service.latency_hit_ms.p50"]
	b.layer["service.cold_p50_ms"] = server["service.latency_cold_ms.p50"]
	b.layer["http.overhead_p50_ms"] = b.layer["client.hit_p50_ms"] - b.layer["service.hit_p50_ms"]
	b.layer["http.cold_overhead_p50_ms"] = b.layer["client.cold_p50_ms"] - b.layer["service.cold_p50_ms"]
	b.layer["core.digest_us"] = digestMicros(b.spans, whatifScenarios(b.seed))
	return nil
}

// digestMicros times Scenario.Config + Digest over the scenario set and
// returns the median per call in microseconds.
func digestMicros(spans *spanLog, scns []service.Scenario) float64 {
	var us []float64
	for rep := 0; rep < 5; rep++ {
		sp := spans.begin("core.Digest", open{})
		t0 := time.Now()
		for _, s := range scns {
			cfg, err := s.Config()
			if err == nil {
				_ = cfg.Digest()
			}
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(scns)))
		spans.end(sp)
	}
	return median(us)
}

// run POSTs one scenario to /run and checks the response; it returns the
// cache outcome.
func (w *whatifServer) run(i int, seen *bodies) (string, error) {
	resp, err := w.client.Post(w.url+"/run", "application/json", bytes.NewReader(w.runs[i]))
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/run: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return resp.Header.Get(service.HeaderCache), seen.check(resp.Header.Get(service.HeaderDigest), body)
}

// sweep POSTs a two-cell sweep around one scenario and checks every
// streamed cell.
func (w *whatifServer) sweep(i int, seen *bodies) error {
	resp, err := w.client.Post(w.url+"/sweep", "application/json", bytes.NewReader(w.sweeps[i]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("/sweep: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	cells := 0
	for sc.Scan() {
		var cell service.SweepCell
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			return fmt.Errorf("/sweep line: %w", err)
		}
		if cell.Error != "" {
			return fmt.Errorf("/sweep cell %d: %s", cell.Index, cell.Error)
		}
		var p struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(cell.Prediction, &p); err != nil {
			return fmt.Errorf("/sweep cell %d prediction: %w", cell.Index, err)
		}
		if err := seen.check(p.Digest, cell.Prediction); err != nil {
			return err
		}
		cells++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if cells != 2 {
		return fmt.Errorf("/sweep streamed %d cells, want 2", cells)
	}
	return nil
}
