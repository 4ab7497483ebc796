package raytrace

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runRT(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, err := core.Lookup("raytrace")
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
	run := k.Run("raytrace/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return run
}

func TestRaytraceCorrectAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "nolock", "splitq"} {
		t.Run(v, func(t *testing.T) { runRT(t, v, "svm", 4, 0.5) })
	}
}

func TestRaytraceAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.PaperNames() {
		t.Run(pl, func(t *testing.T) { runRT(t, "splitq", pl, 4, 0.5) })
	}
}

func TestRaytraceUniprocessor(t *testing.T) {
	runRT(t, "orig", "svm", 1, 0.5)
}

func TestRaytraceStatsLockKillsSVM(t *testing.T) {
	// The paper's headline: removing one statistics lock takes Raytrace
	// from 0.5 to 11.05 on SVM.
	orig := runRT(t, "orig", "svm", 8, 0.5)
	nolock := runRT(t, "nolock", "svm", 8, 0.5)
	if nolock.EndTime*2 >= orig.EndTime {
		t.Errorf("nolock (%d) must be far faster than orig (%d) on SVM", nolock.EndTime, orig.EndTime)
	}
	if lw := orig.Share(stats.LockWait); lw < 0.4 {
		t.Errorf("orig lock wait share = %.2f, want dominant (>= 0.4)", lw)
	}
}

func TestRaytraceStatsLockHarmlessOnSMP(t *testing.T) {
	// On hardware cache coherence the same lock is "relatively
	// insignificant" (paper §4.2.3).
	orig := runRT(t, "orig", "smp", 8, 0.5)
	nolock := runRT(t, "nolock", "smp", 8, 0.5)
	if float64(orig.EndTime) > 1.5*float64(nolock.EndTime) {
		t.Errorf("SMP orig/nolock = %.2f, statistics lock should be cheap on hardware",
			float64(orig.EndTime)/float64(nolock.EndTime))
	}
}

func TestRaytraceProcZeroWarmScene(t *testing.T) {
	// Processor 0 initialized the scene, so it fetches fewer pages than
	// the others (paper Figure 12 analysis).
	run := runRT(t, "nolock", "svm", 8, 0.5)
	p0 := run.Procs[0].Counters.PageFetches
	var others uint64
	for i := 1; i < 8; i++ {
		others += run.Procs[i].Counters.PageFetches
	}
	others /= 7
	if p0 >= others {
		t.Errorf("proc 0 fetches %d >= average others %d; scene warm-start missing", p0, others)
	}
}
