package pipeline

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
)

func runPipe(t *testing.T, version, plat string, np int, scale float64) *instance {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	inst, err := app{}.Build(version, scale, as, np)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platform.Make(plat, as, np)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	k.Run("pipeline/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return inst.(*instance)
}

func TestAllVersionsRunAndVerify(t *testing.T) {
	for _, v := range []string{"orig", "pad", "split", "batch"} {
		t.Run(v, func(t *testing.T) { runPipe(t, v, "svm", 4, 0.25) })
	}
}

func TestAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.PaperNames() {
		t.Run(pl, func(t *testing.T) { runPipe(t, "batch", pl, 4, 0.25) })
	}
}

func TestUniprocessor(t *testing.T) {
	runPipe(t, "orig", "svm", 1, 0.25)
}

// Conservation at processor counts that do not divide the stage count (or
// each other): every stage transforms every item exactly once and every
// queue drains, even when processors multiplex stages (np < 4) or stages
// have unequal processor shares (np % 4 != 0).
func TestItemConservationAtAwkwardProcCounts(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 6, 7} {
		for _, v := range []string{"orig", "pad", "split", "batch"} {
			in := runPipe(t, v, "svm", np, 0.25) // Verify inside runPipe checks conservation
			for s := 0; s < numStages; s++ {
				if in.processed[s] != in.numItems {
					t.Errorf("np=%d %s: stage %d processed %d of %d", np, v, s, in.processed[s], in.numItems)
				}
			}
		}
	}
}

// The output is a pure function of the input: fingerprints must agree
// across versions, platforms, and processor counts.
func TestFingerprintInvariant(t *testing.T) {
	var want uint64
	first := ""
	check := func(name string, in *instance) {
		fp := in.Fingerprint()
		if first == "" {
			want, first = fp, name
			return
		}
		if fp != want {
			t.Errorf("%s fingerprint %#x != %s fingerprint %#x", name, fp, first, want)
		}
	}
	for _, v := range []string{"orig", "pad", "split", "batch"} {
		check(v+"@svm p=3", runPipe(t, v, "svm", 3, 0.25))
	}
	check("batch@smp p=8", runPipe(t, "batch", "smp", 8, 0.25))
	check("orig@dsm p=1", runPipe(t, "orig", "dsm", 1, 0.25))
}

func TestStageAssignmentCoversAllStages(t *testing.T) {
	for np := 1; np <= 16; np++ {
		seen := map[int]bool{}
		for p := 0; p < np; p++ {
			for _, s := range stagesOf(np, p) {
				seen[s] = true
			}
		}
		for s := 0; s < numStages; s++ {
			if !seen[s] {
				t.Errorf("np=%d: stage %d has no processor", np, s)
			}
		}
		for s := 0; s < numStages; s++ {
			for _, p := range stageProcs(np, s) {
				if p < 0 || p >= np {
					t.Errorf("np=%d stage %d: processor %d out of range", np, s, p)
				}
			}
		}
	}
}
