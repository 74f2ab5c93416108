package jvm

import (
	"repro/internal/cfs"
	"repro/internal/evtrace"
	"repro/internal/ostopo"
	"repro/internal/simkit"
)

// RunSpec is a one-shot run description: one machine, one JVM, optional
// interference.
type RunSpec struct {
	Config
	// Topo defaults to the paper's testbed (20 cores, SMT off).
	Topo *ostopo.Topology
	// Sched overrides scheduler parameters (nil = defaults).
	Sched *cfs.Params
	// Seed seeds the whole simulation.
	Seed int64
	// BusyLoops adds interfering CPU hogs pinned to the first cores.
	BusyLoops int
	// MaxSim bounds virtual time (0 = 20 minutes).
	MaxSim simkit.Time
	// Trace records a scheduling timeline (cfs.Trace) into Result.Trace.
	Trace bool
	// EvTracer, when non-nil, receives structured events from every layer
	// (simkit, cfs, jmutex, taskq, pscavenge) for Perfetto export and lock
	// profiling. Tracing never perturbs the simulation.
	EvTracer *evtrace.Tracer
	// Metrics, when non-nil, is the unified counter registry, snapshotted
	// after each collection.
	Metrics *evtrace.Registry
	// Scratch, when non-nil, supplies pooled backing arrays for the
	// machine; Run harvests them back before returning. Reuse never
	// changes results (see Scratch).
	Scratch *Scratch
}

// Run executes a single-JVM simulation to completion and returns its
// result. An ErrOutOfMemory run still returns a Result (with Err set);
// other failures return an error.
func Run(spec RunSpec) (*Result, error) {
	topo := spec.Topo
	if topo == nil {
		topo = ostopo.PaperTestbed()
	}
	maxSim := spec.MaxSim
	if maxSim <= 0 {
		maxSim = 20 * 60 * simkit.Second
	}
	m := NewMachineScratch(spec.Seed, topo, spec.Sched, spec.EvTracer, spec.Scratch)
	defer m.Close()
	m.Metrics = spec.Metrics
	var tr *cfs.Trace
	if spec.Trace {
		tr = cfs.NewTrace()
		m.K.SetTrace(tr)
	}
	if spec.BusyLoops > 0 {
		m.AddBusyLoops(spec.BusyLoops)
	}
	j, err := m.AddJVM(spec.Config)
	if err != nil {
		return nil, err
	}
	if err := m.Run(maxSim); err != nil {
		return nil, err
	}
	res := j.Result()
	if tr != nil {
		tr.CloseOpen(m.Sim.Now())
		res.Trace = tr
		res.NumCPUs = m.K.NumCPUs()
	}
	return res, nil
}

// RunMulti executes several JVMs sharing one machine (§5.7) and returns
// their results in order.
func RunMulti(seed int64, topo *ostopo.Topology, sched *cfs.Params, busyLoops int, maxSim simkit.Time, cfgs ...Config) ([]*Result, error) {
	return RunMultiTraced(seed, topo, sched, busyLoops, maxSim, nil, nil, cfgs...)
}

// RunMultiTraced is RunMulti with a shared event-bus tracer attached from
// machine construction on (nil disables tracing). Each JVM's monitors and
// task ids are namespaced by its instance, so one bus carries all of them
// unambiguously. sc, when non-nil, supplies pooled backing arrays for the
// machine and every JVM instance on it, harvested back before returning
// (nil runs cold); reuse never changes results (see Scratch).
func RunMultiTraced(seed int64, topo *ostopo.Topology, sched *cfs.Params, busyLoops int, maxSim simkit.Time, tr *evtrace.Tracer, sc *Scratch, cfgs ...Config) ([]*Result, error) {
	if topo == nil {
		topo = ostopo.PaperTestbed()
	}
	if maxSim <= 0 {
		maxSim = 20 * 60 * simkit.Second
	}
	m := NewMachineScratch(seed, topo, sched, tr, sc)
	defer m.Close()
	if busyLoops > 0 {
		m.AddBusyLoops(busyLoops)
	}
	jvms := make([]*JVM, 0, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Seed += int64(i * 1000003)
		j, err := m.AddJVM(cfg)
		if err != nil {
			return nil, err
		}
		jvms = append(jvms, j)
	}
	if err := m.Run(maxSim); err != nil {
		return nil, err
	}
	out := make([]*Result, len(jvms))
	for i, j := range jvms {
		out[i] = j.Result()
	}
	return out, nil
}
