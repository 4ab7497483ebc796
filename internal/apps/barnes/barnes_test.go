package barnes

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

var allVersions = []string{"splash", "pad", "splash2", "updatetree", "partree", "spatial"}

func runBarnes(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, err := core.Lookup("barnes")
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
	run := k.Run("barnes/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return run
}

func TestBarnesCorrectAllVersions(t *testing.T) {
	for _, v := range allVersions {
		t.Run(v, func(t *testing.T) { runBarnes(t, v, "svm", 4, 0.25) })
	}
}

func TestBarnesAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.PaperNames() {
		t.Run(pl, func(t *testing.T) { runBarnes(t, "spatial", pl, 4, 0.25) })
	}
}

func TestBarnesUniprocessor(t *testing.T) {
	runBarnes(t, "splash", "svm", 1, 0.25)
}

func TestBarnesLockCounts(t *testing.T) {
	// The shared-tree build locks on the order of a couple of lock
	// acquisitions per body (paper: ~66k remote locks for 16k bodies in
	// 2 steps); the spatial build must use almost none.
	shared := runBarnes(t, "splash", "svm", 8, 0.5)
	spatial := runBarnes(t, "spatial", "svm", 8, 0.5)
	ls, lo := spatial.AggregateCounters().LockAcquires, shared.AggregateCounters().LockAcquires
	if lo < uint64(1024) { // 1024 bodies at scale 0.5, ~>=1 lock/body over 2 steps
		t.Errorf("shared-tree build acquired only %d locks", lo)
	}
	if ls*4 >= lo {
		t.Errorf("spatial locks (%d) not well below shared-tree locks (%d)", ls, lo)
	}
}

func TestBarnesSpatialBeatsSplashOnSVM(t *testing.T) {
	shared := runBarnes(t, "splash", "svm", 16, 0.5)
	spatial := runBarnes(t, "spatial", "svm", 16, 0.5)
	if spatial.EndTime >= shared.EndTime {
		t.Errorf("spatial (%d) should beat splash (%d) on SVM", spatial.EndTime, shared.EndTime)
	}
}

func TestBarnesTreeBuildShareShrinks(t *testing.T) {
	// Paper: tree building takes 43%% of SVM time with the shared-tree
	// algorithm versus a small share with the spatial one.
	shared := runBarnes(t, "splash", "svm", 16, 0.5)
	spatial := runBarnes(t, "spatial", "svm", 16, 0.5)
	fs := float64(shared.PhaseTimes["treebuild"]) / float64(shared.EndTime*16)
	fo := float64(spatial.PhaseTimes["treebuild"]) / float64(spatial.EndTime*16)
	if fo >= fs {
		t.Errorf("spatial tree-build share %.2f >= shared %.2f", fo, fs)
	}
}
