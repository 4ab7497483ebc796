// Benchmarks regenerating every table and figure in the paper's evaluation,
// plus microbenchmarks of the platform primitives and ablation benches for
// the design choices called out in DESIGN.md. Speedups are attached to the
// benchmark results as custom metrics, so `go test -bench .` prints the
// numbers that correspond to the paper's bars.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchScale keeps the full-figure benchmarks tractable; pass -benchtime and
// larger problem sizes through cmd/figures for paper-scale runs.
const benchScale = 0.5

// runSpeedup executes version vs. the uniprocessor original and reports the
// speedup as a benchmark metric. The Runner (and its memo) must be fresh on
// every iteration: a runner hoisted out of the loop serves iterations 2..N
// from its cache, so the benchmark would measure a map lookup instead of the
// simulator. TestBenchmarkIterationsExecute pins this.
func runSpeedup(b *testing.B, app, version, plat string) {
	b.Helper()
	sp, err := speedupIter(app, version, plat)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i < b.N; i++ {
		if sp, err = speedupIter(app, version, plat); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sp, "speedup")
}

// speedupIter is one cold benchmark iteration: a fresh private memo, so the
// baseline and the cell are both actually simulated. It reports an error if
// the memo claims nothing was executed.
func speedupIter(app, version, plat string) (float64, error) {
	r := harness.NewRunner(16, benchScale)
	sp, err := r.Speedup(app, version, plat)
	if err != nil {
		return 0, err
	}
	if n := r.CacheStats().Executions; n == 0 {
		return 0, fmt.Errorf("benchmark iteration executed no simulations (%s/%s/%s served entirely from cache)", app, version, plat)
	}
	return sp, nil
}

// runBreakdown executes one SVM breakdown figure and reports the dominant
// category's share.
func runBreakdown(b *testing.B, app, version string) {
	b.Helper()
	var run *stats.Run
	for i := 0; i < b.N; i++ {
		var err error
		run, err = harness.Execute(harness.Spec{
			App: app, Version: version, Platform: "svm",
			NumProcs: 16, Scale: harness.BaseScale[app] * benchScale,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(run.EndTime), "cycles")
	b.ReportMetric(run.Share(stats.DataWait), "datawait-share")
	b.ReportMetric(run.Share(stats.LockWait)+run.Share(stats.BarrierWait), "sync-share")
}

// --- Figure 2: original versions across the three platforms ---

func BenchmarkFig2(b *testing.B) {
	for _, app := range Apps() {
		vs, _ := Versions(app)
		for _, plat := range Platforms() {
			b.Run(fmt.Sprintf("%s/%s", app, plat), func(b *testing.B) {
				runSpeedup(b, app, vs[0].Name, plat)
			})
		}
	}
}

// --- Figures 3..15: SVM execution-time breakdowns ---

func BenchmarkFig3_LUContiguous(b *testing.B)    { runBreakdown(b, "lu", "4d") }
func BenchmarkFig4_OceanContiguous(b *testing.B) { runBreakdown(b, "ocean", "4d") }
func BenchmarkFig5_OceanRows(b *testing.B)       { runBreakdown(b, "ocean", "rows") }
func BenchmarkFig6_VolrendOrig(b *testing.B)     { runBreakdown(b, "volrend", "orig") }
func BenchmarkFig7_VolrendBalanced(b *testing.B) { runBreakdown(b, "volrend", "balanced") }
func BenchmarkFig8_VolrendNoSteal(b *testing.B)  { runBreakdown(b, "volrend", "nosteal") }
func BenchmarkFig9_ShearWarpOrig(b *testing.B)   { runBreakdown(b, "shearwarp", "orig") }
func BenchmarkFig10_ShearWarpOpt(b *testing.B)   { runBreakdown(b, "shearwarp", "opt") }
func BenchmarkFig11_RaytraceOrig(b *testing.B)   { runBreakdown(b, "raytrace", "orig") }
func BenchmarkFig12_RaytraceSplitQ(b *testing.B) { runBreakdown(b, "raytrace", "splitq") }
func BenchmarkFig13_BarnesSplash2(b *testing.B)  { runBreakdown(b, "barnes", "splash2") }
func BenchmarkFig14_BarnesSpatial(b *testing.B)  { runBreakdown(b, "barnes", "spatial") }
func BenchmarkFig15_RadixOrig(b *testing.B)      { runBreakdown(b, "radix", "orig") }

// --- Figure 16: optimization classes across platforms ---

func BenchmarkFig16(b *testing.B) {
	for _, app := range Apps() {
		vs, _ := Versions(app)
		for _, v := range vs {
			for _, plat := range Platforms() {
				b.Run(fmt.Sprintf("%s/%s/%s", app, v.Name, plat), func(b *testing.B) {
					runSpeedup(b, app, v.Name, plat)
				})
			}
		}
	}
}

// --- Parallel experiment engine ---

// BenchmarkParallelMatrix measures the parallel experiment engine on a
// Figure 2-style matrix (every app's original version on every platform,
// with shared uniprocessor baselines) at reduced scale, comparing a serial
// pool against one worker per host core. The speedup between the two
// sub-benchmarks is the engine's win on this host.
func BenchmarkParallelMatrix(b *testing.B) {
	render := func(r *harness.Runner) (string, error) {
		for _, app := range Apps() {
			vs, _ := Versions(app)
			for _, plat := range Platforms() {
				r.Speedup(app, vs[0].Name, plat)
			}
		}
		return "", nil
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := harness.NewRunner(8, benchScale/2)
				r.Render(w, render)
				if fails := r.FailedCells(); len(fails) > 0 {
					b.Fatalf("cells failed: %v", fails)
				}
			}
		})
	}
}

// --- Figure 17: Volrend stealing on SVM vs DSM ---

func BenchmarkFig17(b *testing.B) {
	for _, v := range []string{"balanced", "nosteal"} {
		for _, plat := range []string{"svm", "dsm"} {
			b.Run(fmt.Sprintf("%s/%s", v, plat), func(b *testing.B) {
				runSpeedup(b, "volrend", v, plat)
			})
		}
	}
}

// --- Platform primitive microbenchmarks ---

func microKernel(plat string, np int) (*sim.Kernel, *mem.AddressSpace) {
	as := mem.NewAddressSpace(platform.PageSize, np)
	pl, err := platform.Make(plat, as, np)
	if err != nil {
		panic(err)
	}
	return sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager}), as
}

// BenchmarkPageFetch measures the simulated unloaded SVM page fetch (the
// paper's fundamental cost unit); the metric is virtual cycles per fetch.
func BenchmarkPageFetch(b *testing.B) {
	k, as := microKernel("svm", 2)
	a := as.AllocPages(platform.PageSize * 64)
	as.SetHome(a, platform.PageSize*64, 0)
	var per float64
	for i := 0; i < b.N; i++ {
		run := k.Run("fetch", func(p *sim.Proc) {
			if p.ID() == 1 {
				for pg := 0; pg < 64; pg++ {
					p.Read(a + uint64(pg)*platform.PageSize)
				}
			}
			p.Barrier()
		})
		per = float64(run.Procs[1].Cycles[stats.DataWait]) / 64
	}
	b.ReportMetric(per, "cycles/fetch")
}

// BenchmarkLockHandoff measures the uncontended lock cost on each platform —
// the asymmetry behind the paper's synchronization guidelines.
func BenchmarkLockHandoff(b *testing.B) {
	for _, plat := range Platforms() {
		b.Run(plat, func(b *testing.B) {
			k, _ := microKernel(plat, 2)
			var per float64
			for i := 0; i < b.N; i++ {
				run := k.Run("locks", func(p *sim.Proc) {
					for j := 0; j < 100; j++ {
						p.Lock(1)
						p.Compute(10)
						p.Unlock(1)
						p.Compute(1000)
					}
					p.Barrier()
				})
				per = float64(run.TotalCycles(stats.LockWait)) / 200
			}
			b.ReportMetric(per, "cycles/lock")
		})
	}
}

// BenchmarkBarrier measures the 16-processor barrier cost per platform.
func BenchmarkBarrier(b *testing.B) {
	for _, plat := range Platforms() {
		b.Run(plat, func(b *testing.B) {
			k, _ := microKernel(plat, 16)
			var per float64
			for i := 0; i < b.N; i++ {
				run := k.Run("barriers", func(p *sim.Proc) {
					for j := 0; j < 20; j++ {
						p.Barrier()
					}
				})
				per = float64(run.TotalCycles(stats.BarrierWait)) / (20 * 16)
			}
			b.ReportMetric(per, "cycles/arrival")
		})
	}
}

// BenchmarkKernelThroughput measures raw host-side simulation speed:
// simulated accesses per host second on the fast path.
func BenchmarkKernelThroughput(b *testing.B) {
	k, as := microKernel("svm", 1)
	a := as.AllocPages(1 << 20)
	as.SetHome(a, 1<<20, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run("stream", func(p *sim.Proc) {
			for off := uint64(0); off < 1<<20; off += 32 {
				p.Read(a + off)
			}
		})
	}
	b.SetBytes(1 << 20)
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationFreeCSFaults reproduces the paper's diagnostic: Volrend's
// original version with page faults inside critical sections made free.
func BenchmarkAblationFreeCSFaults(b *testing.B) {
	for _, free := range []bool{false, true} {
		b.Run(fmt.Sprintf("freeCS=%v", free), func(b *testing.B) {
			var run *stats.Run
			for i := 0; i < b.N; i++ {
				var err error
				run, err = harness.Execute(harness.Spec{
					App: "volrend", Version: "orig", Platform: "svm",
					NumProcs: 16, Scale: benchScale, FreeCSFaults: free,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(run.EndTime), "cycles")
		})
	}
}

// BenchmarkAblationBarrierManager moves the SVM barrier manager across
// processors (the paper's LU processor-10 analysis).
func BenchmarkAblationBarrierManager(b *testing.B) {
	for _, mgr := range []int{10, 15} {
		b.Run(fmt.Sprintf("manager=%d", mgr), func(b *testing.B) {
			var handler uint64
			for i := 0; i < b.N; i++ {
				as := mem.NewAddressSpace(platform.PageSize, 16)
				pl, _ := platform.Make("svm", as, 16)
				k := sim.New(pl, sim.Config{NumProcs: 16, BarrierManager: mgr})
				run := k.Run("mgr", func(p *sim.Proc) {
					for j := 0; j < 10; j++ {
						p.Compute(uint64(100 * (p.ID() + 1)))
						p.Barrier()
					}
				})
				handler = run.Procs[mgr].Cycles[stats.Handler]
			}
			b.ReportMetric(float64(handler), "mgr-handler-cycles")
		})
	}
}

// BenchmarkExtensionTwoLevel runs applications on the paper's §7 future-work
// hierarchy — SMP nodes of four processors connected by SVM — against plain
// SVM, comparing absolute simulated completion times (speedups must not be
// compared across platforms, §2.1.3). The metric is the plain-SVM time
// divided by the two-level time: > 1 means the hierarchy pays off.
func BenchmarkExtensionTwoLevel(b *testing.B) {
	for _, app := range []string{"ocean", "lu", "radix"} {
		b.Run(app, func(b *testing.B) {
			version := map[string]string{"ocean": "rows", "lu": "4da", "radix": "orig"}[app]
			var ratio float64
			for i := 0; i < b.N; i++ {
				svmRun, err := harness.Execute(harness.Spec{
					App: app, Version: version, Platform: "svm",
					NumProcs: 16, Scale: harness.BaseScale[app] * benchScale,
				})
				if err != nil {
					b.Fatal(err)
				}
				twoRun, err := harness.Execute(harness.Spec{
					App: app, Version: version, Platform: "svmsmp",
					NumProcs: 16, Scale: harness.BaseScale[app] * benchScale,
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(svmRun.EndTime) / float64(twoRun.EndTime)
			}
			b.ReportMetric(ratio, "svm/svmsmp-time")
		})
	}
}

// BenchmarkAblationRadixScale sweeps the Radix key count: the paper notes
// that only much larger key counts can dilute page-grained false sharing.
func BenchmarkAblationRadixScale(b *testing.B) {
	for _, scale := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("scale=%.1f", scale), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				r := harness.NewRunner(16, scale/harness.BaseScale["radix"])
				var err error
				sp, err = r.Speedup("radix", "orig", "svm")
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}
