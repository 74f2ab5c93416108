// Package core is the library's public face: it ties the simulated
// multicore kernel, the generational heap, the Parallel Scavenge collector
// and the benchmark workload models into one entry point, and exposes the
// paper's contribution — coordinated GC thread affinity (Algorithm 1) and
// adaptive semi-random work stealing (Algorithm 2) — as configuration.
//
// Quick start:
//
//	res, err := core.Run(core.Config{Benchmark: "lusearch", Mutators: 16})
//	opt, err := core.Run(core.Config{Benchmark: "lusearch", Mutators: 16,
//	    Optimizations: core.OptAll})
//	fmt.Println(res.GCTime, "->", opt.GCTime)
//
// For full control (scheduler parameters, mutex policies, custom workload
// profiles, co-running JVMs) use the subsystem packages directly; the type
// aliases below are the stable names for their option types.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/affinity"
	"repro/internal/cfs"
	"repro/internal/experiments"
	"repro/internal/jmutex"
	"repro/internal/jvm"
	"repro/internal/ostopo"
	"repro/internal/simkit"
	"repro/internal/taskq"
	"repro/internal/workload"
)

// Aliases for the subsystem option types, so callers need only this
// package for common configuration.
type (
	// Profile is a benchmark workload description (see package workload).
	Profile = workload.Profile
	// Result is a completed run's metrics (see package jvm).
	Result = jvm.Result
	// Topology describes the simulated machine (see package ostopo).
	Topology = ostopo.Topology
	// SchedParams are the CFS model's tunables (see package cfs).
	SchedParams = cfs.Params
	// Time is virtual time in nanoseconds.
	Time = simkit.Time
)

// Optimizations selects which of the paper's fixes are enabled.
type Optimizations int

const (
	// OptNone is the vanilla HotSpot configuration.
	OptNone Optimizations = iota
	// OptAffinity enables dynamic GC thread affinity + task affinity
	// ("w/ GC-affinity" in Fig. 10).
	OptAffinity
	// OptSteal enables semi-random stealing + fast termination
	// ("w/ steal" in Fig. 10).
	OptSteal
	// OptAll enables both ("together").
	OptAll
)

func (o Optimizations) String() string {
	switch o {
	case OptNone:
		return "vanilla"
	case OptAffinity:
		return "w/ GC-affinity"
	case OptSteal:
		return "w/ steal"
	case OptAll:
		return "together"
	}
	return fmt.Sprintf("Optimizations(%d)", int(o))
}

// Config describes one simulated JVM run.
type Config struct {
	// Benchmark names a built-in workload ("lusearch", "xml.validation",
	// "kmeans(large)", "cassandra", ...). Leave empty to use Profile.
	Benchmark string
	// Profile is a custom workload; ignored when Benchmark is set.
	Profile Profile

	// Mutators is the number of application threads (default 16).
	Mutators int
	// GCThreads overrides HotSpot's heuristic (default: 3+ncpus*5/8 above
	// 8 CPUs).
	GCThreads int
	// HeapMB overrides the benchmark's Table-2 heap size.
	HeapMB int

	// Optimizations selects the paper's fixes.
	Optimizations Optimizations

	// Clients/Requests configure server benchmarks (cassandra).
	Clients  int
	Requests int

	// BusyLoops adds CPU-bound interference threads (§5.7).
	BusyLoops int
	// SMT enables hyperthreading on the simulated testbed (§5.8).
	SMT bool

	// Seed makes the whole simulation deterministic. Every value —
	// including 0 — is a distinct, runnable seed; callers that want the
	// conventional default should pass DefaultSeed explicitly (the CLI
	// flag defaults do).
	Seed int64
}

// DefaultSeed is the conventional seed used by the CLI tools, examples,
// and committed fixtures. The library itself never rewrites Config.Seed:
// historically BuildRunSpec silently replaced Seed 0 with 42, which made
// seed 0 unrunnable and aliased two distinct Configs onto one result —
// fatal for any cache keyed by a config digest.
const DefaultSeed int64 = 42

// Canonical returns the normalized form of the configuration: the exact
// Config that Run executes, with every ignored field zeroed so that two
// Configs describing the same run compare (and digest) equal, and two
// Configs describing different runs never collapse onto one form.
//
// Normalizations applied:
//   - Benchmark set → the inline Profile is ignored by Run, so it is
//     zeroed (a stray Profile must not split the cache key).
//   - Benchmark of a batch workload → Clients/Requests are server-only
//     knobs and are zeroed.
//   - Seed is preserved verbatim; canonical forms are injective over
//     seeds (seed 0 stays seed 0).
//
// Canonical is idempotent. Run and Digest both operate on the canonical
// form, so cfg and cfg.Canonical() always produce identical results.
func (c Config) Canonical() Config {
	if c.Benchmark != "" {
		c.Profile = Profile{}
		if p, err := workload.ByName(c.Benchmark); err == nil && p.Class != workload.Server {
			c.Clients, c.Requests = 0, 0
		}
	} else if c.Profile.Class != workload.Server {
		c.Clients, c.Requests = 0, 0
	}
	return c
}

// Digest returns the canonical configuration digest: a SHA-256 over a
// field-stable encoding of Canonical(). Equal digests mean "Run would
// execute the identical simulation", which is what makes digest-keyed
// response caches (cmd/gcsimd) sound. The encoding is an explicit
// field-order rendering — no map iteration anywhere — so the digest is
// byte-stable across processes and repeated calls.
func (c Config) Digest() string {
	n := c.Canonical()
	h := sha256.New()
	// %#v renders structs in declaration order with explicit field names
	// and recurses into the nested value-only types (Profile,
	// objgraph.Params); none of the Config tree contains maps or
	// pointers, so the rendering is deterministic.
	fmt.Fprintf(h, "gcsim-config/v1|%#v", n)
	return hex.EncodeToString(h.Sum(nil))
}

// Run executes one simulated JVM to completion.
func Run(cfg Config) (*Result, error) {
	spec, err := BuildRunSpec(cfg)
	if err != nil {
		return nil, err
	}
	return jvm.Run(spec)
}

// BuildRunSpec resolves a Config into the jvm.RunSpec that Run would
// execute, so callers (e.g. the CLI) can attach observability hooks —
// an event tracer, a metrics registry, a scheduling timeline — before
// running.
func BuildRunSpec(cfg Config) (jvm.RunSpec, error) {
	cfg = cfg.Canonical()
	p := cfg.Profile
	if cfg.Benchmark != "" {
		var err error
		p, err = workload.ByName(cfg.Benchmark)
		if err != nil {
			return jvm.RunSpec{}, err
		}
	}
	jcfg := jvm.Config{
		Profile:   p,
		Mutators:  cfg.Mutators,
		GCThreads: cfg.GCThreads,
		HeapMB:    cfg.HeapMB,
		Clients:   cfg.Clients,
		Requests:  cfg.Requests,
		Seed:      cfg.Seed,
	}
	switch cfg.Optimizations {
	case OptAffinity:
		jcfg = jcfg.WithAffinityOnly()
	case OptSteal:
		jcfg = jcfg.WithStealOnly()
	case OptAll:
		jcfg = jcfg.WithOptimizations()
	}
	return jvm.RunSpec{
		Config:    jcfg,
		Topo:      cfg.Topology(),
		Seed:      cfg.Seed,
		BusyLoops: cfg.BusyLoops,
	}, nil
}

// Topology returns the simulated machine the configuration runs on: the
// paper's testbed, with SMT enabled when c.SMT is set.
func (c Config) Topology() *ostopo.Topology {
	if c.SMT {
		return ostopo.PaperTestbedSMT()
	}
	return ostopo.PaperTestbed()
}

// Compare runs a configuration vanilla and with all optimizations, and
// returns both results — the one-call version of the paper's headline
// experiment.
func Compare(cfg Config) (vanilla, optimized *Result, err error) {
	cfg.Optimizations = OptNone
	vanilla, err = Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.Optimizations = OptAll
	optimized, err = Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return vanilla, optimized, nil
}

// Benchmarks returns all built-in benchmark profiles.
func Benchmarks() []Profile {
	out := workload.Table1Benchmarks()
	for _, sz := range []workload.DataSize{workload.SizeSmall, workload.SizeLarge, workload.SizeHuge} {
		out = append(out, workload.Kmeans(sz), workload.Wordcount(sz), workload.Pagerank(sz))
	}
	return append(out, workload.Cassandra())
}

// Experiments lists the reproducible paper artifacts (tables/figures).
func Experiments() []experiments.Experiment { return experiments.All() }

// RunExperiment regenerates one paper artifact by id ("fig10", "tab1", ...).
// scale divides workload sizes (1 = the full configuration).
func RunExperiment(id string, seed int64, scale int) (*experiments.Result, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(experiments.Options{Seed: seed, Scale: scale}), nil
}

// Expose the enum-ish knobs for advanced callers assembling jvm.Config
// directly.
var (
	// AffinityModes lists the GC thread placement schemes.
	AffinityModes = []affinity.Mode{affinity.ModeNone, affinity.ModeStatic, affinity.ModeDynamic, affinity.ModeNUMANode}
	// StealPolicies lists the work-stealing victim policies.
	StealPolicies = []taskq.PolicyKind{taskq.KindBestOf2, taskq.KindSemiRandom, taskq.KindNUMARestricted, taskq.KindSmartStealing}
	// MutexPolicies lists the monitor disciplines.
	MutexPolicies = []jmutex.Policy{jmutex.PolicyHotSpot, jmutex.PolicyFairFIFO, jmutex.PolicyNoFastPath, jmutex.PolicyWakeAll}
)
