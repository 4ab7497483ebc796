package shearwarp

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runSW(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, err := core.Lookup("shearwarp")
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
	run := k.Run("shearwarp/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return run
}

func TestShearWarpCorrectAllVersions(t *testing.T) {
	for _, v := range []string{"orig", "pad", "opt"} {
		t.Run(v, func(t *testing.T) { runSW(t, v, "svm", 4, 0.5) })
	}
}

func TestShearWarpAcrossPlatforms(t *testing.T) {
	for _, pl := range []string{"svm", "smp", "dsm", "svmsmp"} {
		t.Run(pl, func(t *testing.T) { runSW(t, "opt", pl, 4, 0.5) })
	}
}

func TestShearWarpUniprocessor(t *testing.T) {
	runSW(t, "orig", "svm", 1, 0.5)
}

func TestShearWarpOptEliminatesInterPhaseBarrier(t *testing.T) {
	orig := runSW(t, "orig", "svm", 8, 0.5)
	opt := runSW(t, "opt", "svm", 8, 0.5)
	co := orig.AggregateCounters().Barriers
	cp := opt.AggregateCounters().Barriers
	if cp >= co {
		t.Errorf("opt barrier count %d >= orig %d; the inter-phase barrier should be gone", cp, co)
	}
}

func TestShearWarpOptCutsRedistribution(t *testing.T) {
	// In the optimized version a processor warps from intermediate rows
	// it composited itself, so inter-processor page traffic must drop.
	orig := runSW(t, "orig", "svm", 16, 1)
	opt := runSW(t, "opt", "svm", 16, 1)
	fo := orig.AggregateCounters().PageFetches
	fp := opt.AggregateCounters().PageFetches
	if fp >= fo {
		t.Errorf("opt fetches %d >= orig fetches %d", fp, fo)
	}
	if opt.EndTime >= orig.EndTime {
		t.Errorf("opt time %d >= orig time %d on SVM", opt.EndTime, orig.EndTime)
	}
}

func TestShearWarpProfiledPartitionBalances(t *testing.T) {
	// The profiled contiguous blocks equalize compositing cost even
	// though the head's scanline costs vary strongly: compute times must
	// be within a reasonable band across processors.
	run := runSW(t, "opt", "svm", 8, 1)
	var min, max uint64 = ^uint64(0), 0
	for i := range run.Procs {
		c := run.Procs[i].Cycles[stats.Compute]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max) > 1.6*float64(min) {
		t.Errorf("profiled partition imbalanced: compute %d..%d", min, max)
	}
}

func TestShearWarpRLECostsVary(t *testing.T) {
	// The per-scanline RLE cost profile must be non-uniform (center
	// scanlines cross the head), or the load-balancing story is vacuous.
	as := mem.NewAddressSpace(platform.PageSize, 4)
	a, _ := core.Lookup("shearwarp")
	instI, err := a.Build("opt", 0.5, as, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	mid := in.cost[in.n/2]
	edge := in.cost[1]
	if mid <= edge*2 {
		t.Errorf("scanline costs too uniform: center %d vs edge %d", mid, edge)
	}
}

func TestShearWarpVerifyCatchesSkippedScanline(t *testing.T) {
	// The reference image and Body read the same per-radius composites, so
	// a Body that leaves one central scanline uncomposited must still fail
	// Verify.
	const np = 4
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, _ := core.Lookup("shearwarp")
	instI, err := a.Build("opt", 0.5, as, np)
	if err != nil {
		t.Fatal(err)
	}
	in := instI.(*instance)
	skip := in.n / 2
	pl, err := platform.Make("svm", as, np)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	k.Run("shearwarp/opt-skip@svm", func(p *sim.Proc) {
		id := p.ID()
		p.Barrier()
		for y := in.blockLo[id]; y < in.blockHi[id]; y++ {
			if y != skip {
				in.compositeScanline(p, y)
			}
		}
		for y := in.blockLo[id]; y < in.blockHi[id]; y++ {
			in.warpScanline(p, y)
		}
		p.Barrier()
	})
	if err := in.Verify(); err == nil {
		t.Fatalf("Verify passed with scanline %d never composited", skip)
	}
}

func TestShearWarpBuildAllocation(t *testing.T) {
	// Build keeps no dense volume: at P=128 (a 512x512 image) it allocates
	// the images, the RLE bookkeeping and one composite per radius class.
	const np = 128
	as := mem.NewAddressSpace(platform.PageSize, np)
	a, _ := core.Lookup("shearwarp")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := a.Build("opt", 0.25, as, np); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 16 {
		t.Errorf("Build at np=%d allocated %.1f MB, want < 16", np, mb)
	}
}
