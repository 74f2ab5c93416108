package evtrace_test

import (
	"testing"

	"repro/internal/evtrace"
	"repro/internal/jvm"
	"repro/internal/ostopo"
	"repro/internal/simkit"
	"repro/internal/workload"
)

// TestLockProfilesMultiJVM runs two JVMs on one shared machine and checks
// the per-monitor profiles: each instance's "GCTaskManager#N" monitor
// gets its own profile, every acquisition is attributed to exactly one of
// them, and the merged (lock == "") profile agrees with their sum — the
// multi-JVM contract of the per-monitor ownership cursor.
func TestLockProfilesMultiJVM(t *testing.T) {
	p := workload.Lusearch()
	p.TotalItems = 1500
	cfg := jvm.Config{Profile: p, Mutators: 4, GCThreads: 4}
	tr := evtrace.New(0)
	_, err := jvm.RunMultiTraced(42, ostopo.PaperTestbed(), nil, 0,
		5*60*simkit.Second, tr, nil, cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}

	profiles := evtrace.BuildLockProfiles(tr)
	if len(profiles) < 2 {
		t.Fatalf("got %d monitor profiles, want >= 2 (one per JVM)", len(profiles))
	}
	var totalAcquires int
	names := map[string]bool{}
	for _, lp := range profiles {
		if names[lp.Lock] {
			t.Errorf("duplicate profile for monitor %q", lp.Lock)
		}
		names[lp.Lock] = true
		if lp.Acquires == 0 {
			t.Errorf("monitor %q recorded no acquisitions", lp.Lock)
		}
		totalAcquires += lp.Acquires
	}
	merged := evtrace.BuildLockProfile(tr, "")
	if merged.Acquires != totalAcquires {
		t.Errorf("merged profile has %d acquisitions, per-monitor sum is %d",
			merged.Acquires, totalAcquires)
	}
}
