// Package affinity implements the paper's GC thread placement schemes
// (§4.1): static one-to-one core binding (the BindGCTaskThreadsToCPUs
// backend that OpenJDK never implemented for Linux), the dynamic load-aware
// rebalancing of Algorithm 1 (bind to a randomly chosen low-load core when
// the current core is contended), and the NUMA node-affinity baseline of
// Gidra et al.
//
// Dynamic mode relies on the paper's kernel-side fix: per-core load that
// also counts sleeping threads (cfs.Params.LoadAvgCountsBlocked); package
// jvm enables the two together.
package affinity

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/ostopo"
)

// Mode selects the placement scheme.
type Mode int

const (
	// ModeNone leaves GC threads unbound (vanilla HotSpot on Linux).
	ModeNone Mode = iota
	// ModeStatic binds GC thread i to core i at creation.
	ModeStatic
	// ModeDynamic is Algorithm 1: at each GC start a thread on a high-load
	// core rebinds to a random low-load core.
	ModeDynamic
	// ModeNUMANode binds GC threads to NUMA nodes round-robin (Gidra).
	ModeNUMANode
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	case ModeNUMANode:
		return "numa-node"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Balancer applies a placement mode through the pscavenge engine hooks.
type Balancer struct {
	Mode Mode
	K    *cfs.Kernel
	// HighFactor/LowFactor classify core load against the system average
	// (Algorithm 1 lines 4-9: high ≥ 2·avg, low ≤ 0.5·avg).
	HighFactor float64
	LowFactor  float64
	// CoRunner is an absolute high watermark: a core is also considered
	// contended when the competing load on it reaches this value (one full
	// co-running thread, or two blocked residents). Algorithm 1 uses PELT
	// load_avg, where a co-resident GC thread contributes ~1.0 throughout
	// a collection; our instantaneous proxy sees it as blocked half the
	// time, so the relative test alone would miss stacking pairs.
	CoRunner float64

	// Rebinds counts dynamic rebind operations; Unbinds counts bindings
	// released because no light core existed (for analysis).
	Rebinds int
	Unbinds int

	bound map[int]ostopo.CoreID // worker -> core currently bound by GCWake
}

// New creates a balancer for the kernel.
func New(mode Mode, k *cfs.Kernel) *Balancer {
	return &Balancer{Mode: mode, K: k, HighFactor: 2.0, LowFactor: 0.5, CoRunner: 0.9,
		bound: make(map[int]ostopo.CoreID)}
}

// WorkerStart is the engine's OnWorkerStart hook: static and node binding
// happen once, when the GC thread is created.
func (b *Balancer) WorkerStart(e *cfs.Env, w int) {
	switch b.Mode {
	case ModeStatic:
		e.SetAffinity(ostopo.CoreID(w % b.K.NumCPUs()))
	case ModeNUMANode:
		node := w % b.K.Topo.Nodes
		e.SetAffinity(b.K.Topo.NodeCPUs(node)...)
	}
}

// GCWakeHook returns the engine's OnGCWake hook for b's mode: GCWake under
// ModeDynamic, and nil in every other mode, where GCWake would return at
// once, so the engine skips the call and the GC thread's body resume.
func (b *Balancer) GCWakeHook() func(e *cfs.Env, w int) {
	if b.Mode != ModeDynamic {
		return nil
	}
	return b.GCWake
}

// GCWake is the engine's OnGCWake hook: Algorithm 1, run by each GC thread
// when it wakes for a new collection.
func (b *Balancer) GCWake(e *cfs.Env, w int) {
	if b.Mode != ModeDynamic {
		return
	}
	loads := b.K.CoreLoads() // includes sleepers when the kernel fix is on
	var sum float64
	for _, l := range loads {
		sum += l
	}
	avg := sum / float64(len(loads))
	if avg <= 0 {
		return
	}
	my := int(e.Core())
	// Measure the load this thread contends with: its own running
	// contribution (1.0) does not make its core contended.
	contended := loads[my] - 1
	if contended < 0 {
		contended = 0
	}
	high := b.HighFactor * avg
	if b.CoRunner > 0 && b.CoRunner < high {
		high = b.CoRunner
	}
	if contended < high {
		return // current core not contended; stay
	}
	// Collect low-load cores and rebind to a random one (Algorithm 1
	// lines 17-21). When no core is below the low watermark, fall back to
	// the minimum-load cores — but only if they are genuinely light:
	// hard-binding onto a core that already runs something (a busy loop,
	// another JVM's mutator) is worse than leaving placement to the OS, so
	// in that case the thread unbinds instead.
	var low []ostopo.CoreID
	for c, l := range loads {
		if l <= b.LowFactor*avg {
			low = append(low, ostopo.CoreID(c))
		}
	}
	if len(low) == 0 {
		min := loads[0]
		for _, l := range loads[1:] {
			if l < min {
				min = l
			}
		}
		if min >= b.CoRunner {
			// Machine saturated: release the binding and float.
			if _, wasBound := b.bound[w]; wasBound {
				delete(b.bound, w)
				b.Unbinds++
				e.SetAffinity()
			}
			return
		}
		for c, l := range loads {
			if l <= min+1e-9 {
				low = append(low, ostopo.CoreID(c))
			}
		}
	}
	if len(low) == 0 {
		return
	}
	// Avoid re-stacking: among the low-load candidates, prefer cores no
	// other GC thread is currently bound to (the even 1:1 distribution of
	// Fig. 8a); pick randomly within the least-claimed tier. A claim on a
	// core's SMT sibling counts too — binding two GC threads onto one
	// physical core would halve both.
	claims := make(map[ostopo.CoreID]int)
	for ow, oc := range b.bound {
		if ow == w {
			continue
		}
		claims[oc] += 2
		if sib, ok := b.K.Topo.Sibling(oc); ok {
			claims[sib]++
		}
	}
	minClaims := -1
	for _, c := range low {
		if minClaims < 0 || claims[c] < minClaims {
			minClaims = claims[c]
		}
	}
	tier := low[:0:0]
	for _, c := range low {
		if claims[c] == minClaims {
			tier = append(tier, c)
		}
	}
	target := tier[e.Rand().Intn(len(tier))]
	b.Rebinds++
	b.bound[w] = target
	e.SetAffinity(target)
}

// NodeOf returns the worker→node map used to configure NUMA-restricted
// stealing consistently with node binding.
func (b *Balancer) NodeOf(workers int) []int {
	nodeOf := make([]int, workers)
	for w := range nodeOf {
		nodeOf[w] = w % b.K.Topo.Nodes
	}
	return nodeOf
}
