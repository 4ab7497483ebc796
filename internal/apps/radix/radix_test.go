package radix

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runRadix(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, err := core.Lookup("radix")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := a.Build(version, scale, as, np)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platform.Make(plat, as, np)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	run := k.Run("radix/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return run
}

func TestRadixSortsAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "pad", "local"} {
		t.Run(v, func(t *testing.T) { runRadix(t, v, "svm", 4, 0.125) })
	}
}

func TestRadixAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.PaperNames() {
		t.Run(pl, func(t *testing.T) { runRadix(t, "orig", pl, 4, 0.125) })
	}
}

func TestRadixUniprocessor(t *testing.T) {
	runRadix(t, "orig", "svm", 1, 0.125)
}

func TestRadixMatchesSortReference(t *testing.T) {
	as := mem.NewAddressSpace(platform.PageSize, 2)
	a, _ := core.Lookup("radix")
	instI, err := a.Build("orig", 0.125, as, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	want := append([]uint32(nil), in.input...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	pl, _ := platform.Make("svm", as, 2)
	sim.New(pl, sim.Config{NumProcs: 2}).Run("radix", in.Body)
	for i := range want {
		if in.keys[i] != want[i] {
			t.Fatalf("key %d = %d, want %d", i, in.keys[i], want[i])
		}
	}
}

func TestRadixLocalBufferVersion(t *testing.T) {
	// With stable rank-offset destinations, each processor's page working
	// set is identical in both versions — only the write ORDER differs —
	// so SVM protocol traffic is equal by construction and only local
	// cache behaviour improves (see EXPERIMENTS.md for the deviation
	// from the paper's 1.4 -> 2.24 step). The gathered version must not
	// be significantly worse, and its scattered-write cache stalls must
	// drop.
	orig := runRadix(t, "orig", "svm", 8, 1)
	local := runRadix(t, "local", "svm", 8, 1)
	if lo, oo := local.AggregateCounters().TwinsMade, orig.AggregateCounters().TwinsMade; lo != oo {
		t.Errorf("local twins %d != orig twins %d (page working sets should match)", lo, oo)
	}
	if float64(local.EndTime) > 1.6*float64(orig.EndTime) {
		t.Errorf("local time %d is much worse than orig time %d", local.EndTime, orig.EndTime)
	}
	// Both versions stay far from linear speedup — the paper's bottom
	// line for Radix on SVM ("the major outstanding problems are still
	// communication volume and contention").
	for _, r := range []*stats.Run{orig, local} {
		if w := r.TotalCycles(stats.DataWait) + r.TotalCycles(stats.BarrierWait); w < r.TotalCycles(stats.Compute) {
			t.Errorf("%s: communication+barrier (%d) should dominate compute (%d)", r.Name, w, r.TotalCycles(stats.Compute))
		}
	}
}
