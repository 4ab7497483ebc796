// Command bench is the kernel performance pipeline: it measures the
// simulator's host-side speed — the hot paths a figure run lives in — and
// emits a machine-readable report (BENCH_kernel.json at the repo root is the
// committed reference for this container class).
//
// Three layers, cheapest first:
//
//   - micro: testing.Benchmark over the kernel's hot paths (cache tag-array
//     access, fused hit-access, the SVM fast path, a full kernel access
//     stream, tracing-off Emit) and the page-coherence slow paths (page
//     invalidation, line-table lookup and page drop), reporting ns/op and
//     allocs/op.
//   - figures: wall-clock seconds for the full `figures -all` matrix,
//     simulated in-process against a fresh memo (every cell cold).
//   - serving: cold-cache requests/second through the HTTP serving layer,
//     each request a distinct never-computed cell.
//
// With -compare FILE the run becomes a regression gate: ns/op worse than the
// reference by more than -tolerance, or ANY allocs/op increase, fails with
// exit 1. The gate is one-sided — a run that is faster or allocates less
// than the reference never fails, however large the improvement, so kernel
// speedups land without touching the gate and the JSON is re-baselined in
// the same change. Allocation counts are host-independent and compared exactly;
// ns/op across different machines needs a generous tolerance (CI uses 0.5;
// the 0.10 default is meant for same-machine before/after comparisons).
//
//	bench -quick -out BENCH_kernel.json     # micro only, seconds
//	bench -out BENCH_kernel.json            # full pipeline, minutes
//	bench -quick -compare BENCH_kernel.json -tolerance 0.5
//
// A second, standalone gate covers the sharded serve fleet: with
// -compare-serve BENCH_serve.json -serve-report warm.json the command diffs
// a fresh warm-cluster `loadgen -json` report against the committed fleet
// baseline (one-sided on req/s, p99 reported but not gated) and exits
// without running the kernel pipeline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	_ "repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/smp"
	"repro/internal/svm"
	"repro/internal/trace"
)

// Micro is one microbenchmark result. AllocsPerOp is exact and
// host-independent; NsPerOp is host-dependent.
type Micro struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"n"`
}

// Report is the pipeline's output shape; BENCH_kernel.json holds one.
type Report struct {
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	MaxProcs int    `json:"gomaxprocs"`

	Micro map[string]Micro `json:"micro"`

	// FiguresAllSeconds is the cold wall-clock of the full figure matrix
	// (zero when -quick skipped it). BaselineFiguresAllSeconds is the same
	// number measured at the pre-optimization commit on the same host
	// class, recorded for provenance.
	FiguresAllSeconds         float64 `json:"figures_all_seconds,omitempty"`
	BaselineFiguresAllSeconds float64 `json:"baseline_figures_all_seconds,omitempty"`

	// ColdReqPerSec is the serving layer's throughput on all-cold cells;
	// ColdRequests is how many distinct cells the measurement issued.
	ColdReqPerSec float64 `json:"cold_req_per_sec,omitempty"`
	ColdRequests  int     `json:"cold_requests,omitempty"`
}

// baselineFiguresAllSeconds was measured at the commit before the hot-path
// optimization PR with the same matrix on the same container class.
const baselineFiguresAllSeconds = 70.7

func microBench(fn func(b *testing.B)) Micro {
	r := testing.Benchmark(fn)
	return Micro{NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N), AllocsPerOp: r.AllocsPerOp(), N: r.N}
}

// runMicro measures the kernel's hot paths. Each loop body mirrors the shape
// of the corresponding alloc-guard test so the two pins (time here, allocs
// there) watch the same code.
func runMicro() map[string]Micro {
	m := map[string]Micro{}

	m["cache_access_stream"] = microBench(func(b *testing.B) {
		h := cache.New(svm.CacheConfig)
		var addr uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(addr, i&1 == 0, cache.Exclusive)
			addr += 32
		}
	})

	m["cache_hitaccess_hit"] = microBench(func(b *testing.B) {
		h := cache.New(svm.CacheConfig)
		h.Access(64, true, cache.Modified)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.HitAccess(64, i&1 == 0)
		}
	})

	m["svm_fastaccess"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		a := as.AllocPages(1 << 16)
		as.SetHome(a, 1<<16, 0)
		pl := svm.New(as, svm.DefaultParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		pl.Attach(k)
		pl.Prevalidate(a, 1<<16, 0)
		var off uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl.FastAccess(0, 0, a+off%(1<<16), false)
			off += 32
		}
	})

	// One op = one full 32768-access kernel run (1 MB at 32 B lines),
	// scheduler and stats included — the closest micro proxy for figure
	// wall-clock. The stream is issued as page-sized ReadRange batches, the
	// way the applications stream memory, so this measures the event loop's
	// resumable-batch path end to end.
	m["kernel_stream_32k"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		a := as.AllocPages(1 << 20)
		as.SetHome(a, 1<<20, 0)
		pl := svm.New(as, svm.DefaultParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		body := func(p *sim.Proc) {
			for off := uint64(0); off < 1<<20; off += platform.PageSize {
				p.ReadRange(a+off, platform.PageSize)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Run("stream", body)
		}
	})

	// Same 32768-line stream issued as individual Read calls: the per-line
	// entry into the kernel, which irregular access patterns still use.
	m["kernel_stream_lines_32k"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		a := as.AllocPages(1 << 20)
		as.SetHome(a, 1<<20, 0)
		pl := svm.New(as, svm.DefaultParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		body := func(p *sim.Proc) {
			for off := uint64(0); off < 1<<20; off += 32 {
				p.Read(a + off)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Run("stream", body)
		}
	})

	// One op = one SVM page invalidation: four lines of a 4 KB page are
	// filled, then the page is invalidated, as a page fetch or an applied
	// diff does. The residency bitmap makes the walk visit the four
	// resident lines, not all 128 lines of the page.
	m["cache_invalidate_page"] = microBench(func(b *testing.B) {
		h := cache.New(svm.CacheConfig)
		const npages = 64
		for pg := uint64(0); pg < npages; pg++ {
			h.Access(pg*platform.PageSize, false, cache.Exclusive) // size the bitmap
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := uint64(i%npages) * platform.PageSize
			for off := uint64(0); off < 4*256; off += 256 {
				h.Access(base+off, false, cache.Exclusive)
			}
			h.InvalidateRange(base, platform.PageSize)
		}
	})

	// One op = four line-table lookups in a 4 KB page of a 4-member MESI
	// engine, then the page's lines dropped, as svmsmp does when a page's
	// contents change under a cluster.
	m["line_table_entry"] = microBench(func(b *testing.B) {
		e := protocol.NewLineEngine(protocol.MESI, smp.CacheConfig, 4)
		const npages = 64
		for pg := uint64(0); pg < npages; pg++ {
			e.Entry(pg * platform.PageSize / uint64(smp.CacheConfig.Line)) // allocate the chunks
		}
		lines := uint64(platform.PageSize / smp.CacheConfig.Line)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pg := uint64(i % npages)
			for j := uint64(0); j < 4; j++ {
				if e.Entry(pg*lines+j*7).Owner() >= 0 {
					b.Fatal("dropped line still owned")
				}
			}
			e.DropLines(pg*platform.PageSize, platform.PageSize)
		}
	})

	m["emit_nilsink"] = microBench(func(b *testing.B) {
		as := mem.NewAddressSpace(platform.PageSize, 1)
		pl := svm.New(as, svm.DefaultParams(), 1)
		k := sim.New(pl, sim.Config{NumProcs: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Emit(trace.PageFault, 0, uint64(i), 0, 0)
		}
	})

	return m
}

// runFiguresAll simulates the complete figure matrix against a fresh memo
// (every cell cold) and renders every figure, discarding the text — the same
// work `figures -all` does, minus stdout.
func runFiguresAll() (float64, error) {
	r := harness.NewRunner(16, 1)
	var cells []harness.Cell
	figs := harness.Figures()
	for _, f := range figs {
		cells = append(cells, f.Cells()...)
	}
	start := time.Now()
	r.RunParallel(runtime.GOMAXPROCS(0), cells)
	for _, f := range figs {
		if _, err := f.Run(r); err != nil {
			return 0, fmt.Errorf("figure %s: %w", f.ID, err)
		}
	}
	secs := time.Since(start).Seconds()
	if fails := r.FailedCells(); len(fails) > 0 {
		return 0, fmt.Errorf("%d cell(s) failed: %v", len(fails), fails)
	}
	return secs, nil
}

// runColdServing measures the HTTP serving layer on all-cold cells: distinct
// (app, version, procs) requests against a fresh memo, issued by concurrent
// clients, so every request pays a real simulation. Scale 1 keeps the
// simulations large enough that the kernel, not HTTP plumbing, dominates.
func runColdServing() (reqPerSec float64, n int, err error) {
	srv := httptest.NewServer(server.New(server.Config{Memo: harness.NewMemo(nil)}))
	defer srv.Close()

	type req struct {
		app, version string
		procs        int
	}
	var reqs []req
	for _, av := range []req{{app: "lu", version: "orig"}, {app: "lu", version: "4d"}, {app: "ocean", version: "rows"}} {
		for _, p := range []int{1, 2, 4, 8} {
			reqs = append(reqs, req{av.app, av.version, p})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	work := make(chan req)
	start := time.Now()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rq := range work {
				url := fmt.Sprintf("%s/run?app=%s&version=%s&platform=svm&p=%d&scale=1",
					srv.URL, rq.app, rq.version, rq.procs)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	for _, rq := range reqs {
		work <- rq
	}
	close(work)
	wg.Wait()
	wall := time.Since(start).Seconds()
	close(errs)
	for e := range errs {
		return 0, 0, e
	}
	return float64(len(reqs)) / wall, len(reqs), nil
}

// ServeRun is the slice of a `loadgen -json` report the serve gate reads;
// ServeBench is the shape of BENCH_serve.json (a cold pass that measures
// fleet-wide exactly-once simulation, then a warm pass that measures
// steady-state throughput).
type ServeRun struct {
	ReqPerSec        float64 `json:"req_per_sec"`
	SimsPerUniqCell  float64 `json:"sims_per_unique_cell"`
	ClusterFallbacks float64 `json:"cluster_fallbacks"`
	Latency          struct {
		P50 float64 `json:"p50_ms"`
		P99 float64 `json:"p99_ms"`
	} `json:"latency_ms"`
}

type ServeBench struct {
	Cold ServeRun `json:"cold"`
	Warm ServeRun `json:"warm"`
}

// compareServe gates a fresh warm-cluster loadgen report against the
// committed BENCH_serve.json. One-sided like the kernel gate: only a warm
// throughput drop beyond tol fails; faster runs and p99 movement never do
// (latency is reported for the log, not gated — it is too host-noisy).
func compareServe(ref ServeBench, cur ServeRun, tol float64) (lines []string, failed bool) {
	delta := (cur.ReqPerSec - ref.Warm.ReqPerSec) / ref.Warm.ReqPerSec
	status := "ok  "
	if delta < -tol {
		status = "FAIL"
		failed = true
	}
	lines = append(lines,
		fmt.Sprintf("%s serve_warm_throughput   %12.1f -> %12.1f req/s  (%+6.1f%%)", status, ref.Warm.ReqPerSec, cur.ReqPerSec, 100*delta),
		fmt.Sprintf("info serve_warm_p99        %12.2f -> %12.2f ms     (reported, not gated)", ref.Warm.Latency.P99, cur.Latency.P99))
	return lines, failed
}

// compare gates a new report against a committed reference. The gate is
// strictly one-sided: getting faster (lower ns/op) or leaner (fewer
// allocs/op) can never fail, however large the improvement — only an
// allocs/op increase (exact, host-independent) or an ns/op regression beyond
// tol does. Benchmarks present in the reference must still exist; benchmarks
// new in the current run are reported but ungated until re-baselined.
func compare(ref, cur Report, tol float64) (lines []string, failed bool) {
	names := make([]string, 0, len(ref.Micro))
	for name := range ref.Micro {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old := ref.Micro[name]
		nu, ok := cur.Micro[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("FAIL %-24s missing from current run", name))
			failed = true
			continue
		}
		delta := (nu.NsPerOp - old.NsPerOp) / old.NsPerOp
		status := "ok  "
		switch {
		case nu.AllocsPerOp > old.AllocsPerOp:
			status = "FAIL"
			failed = true
		case delta > tol:
			status = "FAIL"
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%s %-24s %12.1f -> %12.1f ns/op (%+6.1f%%)  %d -> %d allocs/op",
			status, name, old.NsPerOp, nu.NsPerOp, 100*delta, old.AllocsPerOp, nu.AllocsPerOp))
	}
	extra := make([]string, 0)
	for name := range cur.Micro {
		if _, ok := ref.Micro[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		nu := cur.Micro[name]
		lines = append(lines, fmt.Sprintf("new  %-24s %12s -> %12.1f ns/op           %s -> %d allocs/op (not in reference; re-baseline to gate)",
			name, "-", nu.NsPerOp, "-", nu.AllocsPerOp))
	}
	return lines, failed
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	compareFile := flag.String("compare", "", "reference BENCH_kernel.json to gate against")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression in -compare mode")
	quick := flag.Bool("quick", false, "micro benchmarks only; skip the figure matrix and serving measurements")
	compareServeFile := flag.String("compare-serve", "", "reference BENCH_serve.json to gate a -serve-report against")
	serveReport := flag.String("serve-report", "", "fresh warm-cluster `loadgen -json` report for the -compare-serve gate")
	flag.Parse()

	// Serve-gate mode is standalone: diff a fresh loadgen report against the
	// committed fleet baseline and exit, without rerunning the kernel pipeline.
	if *compareServeFile != "" || *serveReport != "" {
		if *compareServeFile == "" || *serveReport == "" {
			fmt.Fprintln(os.Stderr, "bench: -compare-serve and -serve-report must be given together")
			os.Exit(2)
		}
		var ref ServeBench
		var cur ServeRun
		for _, f := range []struct {
			path string
			into any
		}{{*compareServeFile, &ref}, {*serveReport, &cur}} {
			raw, err := os.ReadFile(f.path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			if err := json.Unmarshal(raw, f.into); err != nil {
				fmt.Fprintf(os.Stderr, "bench: parsing %s: %v\n", f.path, err)
				os.Exit(1)
			}
		}
		if ref.Warm.ReqPerSec <= 0 {
			fmt.Fprintf(os.Stderr, "bench: %s has no warm.req_per_sec baseline\n", *compareServeFile)
			os.Exit(1)
		}
		lines, failed := compareServe(ref, cur, *tol)
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, l)
		}
		if failed {
			fmt.Fprintf(os.Stderr, "bench: serve regression vs %s (tolerance %.0f%%)\n", *compareServeFile, 100**tol)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: no serve regression vs %s (tolerance %.0f%%)\n", *compareServeFile, 100**tol)
		return
	}

	rep := Report{
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		Micro:    runMicro(),
	}
	if !*quick {
		secs, err := runFiguresAll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: figures:", err)
			os.Exit(1)
		}
		rep.FiguresAllSeconds = secs
		rep.BaselineFiguresAllSeconds = baselineFiguresAllSeconds
		rps, n, err := runColdServing()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: serving:", err)
			os.Exit(1)
		}
		rep.ColdReqPerSec = rps
		rep.ColdRequests = n
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *compareFile != "" {
		raw, err := os.ReadFile(*compareFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		var ref Report
		if err := json.Unmarshal(raw, &ref); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parsing %s: %v\n", *compareFile, err)
			os.Exit(1)
		}
		lines, failed := compare(ref, rep, *tol)
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, l)
		}
		if failed {
			fmt.Fprintf(os.Stderr, "bench: regression vs %s (tolerance %.0f%%)\n", *compareFile, 100**tol)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: no regression vs %s (tolerance %.0f%%)\n", *compareFile, 100**tol)
	}
}
