package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// goldenPath is the committed scale-4, seed-42 rendering of every
// artifact. The benchmark only reads it.
const goldenPath = "internal/experiments/testdata/golden_scale4_seed42.txt"

// paperScale is the acceptance scale the golden fixture was rendered at.
const paperScale = 4

// paperCells is the number of simulation cells one pass over every
// artifact runs at paperScale: the work a pass does. ops_per_s and
// alloc_kb_per_op count a pass as paperCells operations whatever the
// number of pool tasks the program splits it into, so batching or
// splitting tasks moves neither; the live task count is only reported as
// runner.tasks.
const paperCells = 337

// paperPrimeID is the artifact each set-up runs once, untimed, to warm
// the pool's per-worker scratch: the smallest one that fans out cells.
const paperPrimeID = "fig3d"

// runPaperEval renders all artifacts of experiments.All() at scale 4
// through one shared runner.Pool per round (a pass) and gates each pass on
// the rendered bytes: equal to the golden fixture on the default seed,
// equal across the run's passes on any other seed. Every pass must also
// run as many pool tasks as the first one did, so a run's passes all do
// the same work.
func runPaperEval(b *bench) error {
	exps := experiments.All()
	prime, err := experiments.ByID(paperPrimeID)
	if err != nil {
		return err
	}
	var (
		golden []byte
		pool   *runner.Pool
	)
	closeFn, err := b.setup(func() (func(), error) {
		g, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, err
		}
		golden = g
		pool = runner.New(b.workers)
		prime.Run(experiments.Options{Seed: b.seed, Scale: paperScale, Pool: pool})
		return nil, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()

	var want []byte
	if b.seed == defaultSeed {
		want = golden
	}
	hostS := map[string][]float64{}
	firstTasks := int64(-1)
	err = b.rounds(func(r *round) error {
		pass := r.spans.begin("pass", open{})
		snap := pool.Snapshot()
		t0 := time.Now()
		out, err := renderPass(r, pass, exps, pool, b.seed, hostS)
		wall := time.Since(t0)
		r.spans.end(pass)
		tasks, busy := pool.StatsSince(snap)
		r.done(paperCells)
		r.count("passes", 1)
		r.count("runner.tasks", float64(tasks))
		r.count("busy_ns", float64(busy))
		r.count("wall_ns", float64(wall))
		if err == nil {
			err = gateBytes("rendered evaluation", out, want)
		}
		if err == nil {
			err = gateTasks(tasks, &firstTasks)
		}
		if want == nil && err == nil {
			want = out
		}
		r.gate(err)
		return nil
	})
	if err != nil {
		return err
	}
	if firstTasks != paperCells {
		b.note("note: a pass ran %d pool tasks; the %d-cell set counts as %d operations", firstTasks, paperCells, paperCells)
	}
	c := b.counts
	if c["passes"] > 0 {
		b.layer["runner.tasks"] = c["runner.tasks"] / c["passes"]
		b.layer["runner.busy_frac"] = c["busy_ns"] / (c["wall_ns"] * float64(pool.Workers()))
	}
	for id, ds := range hostS {
		b.layer["experiments."+id+".host_s"] = median(ds)
	}
	return nil
}

// renderPass runs every experiment once and returns the concatenated
// rendering. An experiment that panics fails the pass.
func renderPass(r *round, pass open, exps []experiments.Experiment, pool *runner.Pool, seed int64, hostS map[string][]float64) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment panicked: %v", p)
		}
	}()
	var buf bytes.Buffer
	for _, e := range exps {
		sp := r.spans.begin("experiments."+e.ID, pass)
		t0 := time.Now()
		res := e.Run(experiments.Options{Seed: seed, Scale: paperScale, Pool: pool})
		d := time.Since(t0)
		r.spans.end(sp)
		r.latency(d)
		if r.traced {
			hostS[e.ID] = append(hostS[e.ID], d.Seconds())
		}
		res.Render(&buf)
	}
	return buf.Bytes(), nil
}

// gateTasks fails when a pass ran a different number of pool tasks than
// the run's first pass; *first < 0 is set from this pass.
func gateTasks(tasks int64, first *int64) error {
	if *first < 0 {
		*first = tasks
	}
	if tasks != *first {
		return fmt.Errorf("pass ran %d pool tasks, the first pass ran %d", tasks, *first)
	}
	return nil
}

// gateBytes fails when got differs from want; a nil want (first pass on a
// non-default seed) always passes.
func gateBytes(what string, got, want []byte) error {
	if want == nil || bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	return fmt.Errorf("%s differs from the reference at byte %d (got %d bytes, want %d)", what, at, len(got), len(want))
}
