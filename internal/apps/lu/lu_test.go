package lu

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runLU(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, err := core.Lookup("lu")
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
	run := k.Run("lu/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return run
}

func TestLUCorrectAllVersionsSVM(t *testing.T) {
	for _, v := range []string{"orig", "pad", "4d", "4da"} {
		t.Run(v, func(t *testing.T) { runLU(t, v, "svm", 4, 0.25) })
	}
}

func TestLUCorrectAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.PaperNames() {
		t.Run(pl, func(t *testing.T) { runLU(t, "4da", pl, 4, 0.25) })
	}
}

func TestLUUniprocessor(t *testing.T) {
	runLU(t, "orig", "svm", 1, 0.25)
}

func TestLU4dReducesFaultsVsOrig(t *testing.T) {
	orig := runLU(t, "orig", "svm", 8, 0.5)
	opt := runLU(t, "4da", "svm", 8, 0.5)
	of := orig.AggregateCounters().PageFetches
	nf := opt.AggregateCounters().PageFetches
	if nf >= of {
		t.Errorf("4da fetches %d >= orig fetches %d; restructuring must cut communication", nf, of)
	}
	if opt.EndTime >= orig.EndTime {
		t.Errorf("4da time %d >= orig time %d on SVM", opt.EndTime, orig.EndTime)
	}
}

func TestLUVersionsListed(t *testing.T) {
	a, _ := core.Lookup("lu")
	vs := a.Versions()
	if len(vs) != 4 || vs[0].Class != core.Orig {
		t.Fatalf("unexpected versions: %+v", vs)
	}
}

func TestLUUnknownVersion(t *testing.T) {
	as := mem.NewAddressSpace(platform.PageSize, 2)
	a, _ := core.Lookup("lu")
	if _, err := a.Build("nope", 1, as, 2); err == nil {
		t.Error("expected error for unknown version")
	}
}
