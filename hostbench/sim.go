package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/trace"
)

// simWorkload is a cold run of a committed campaign's cells, narrowed to
// some platforms and processor counts, through a pool of at most nproc
// workers calling server.CellBody over a fresh memo with no store.
type simWorkload struct {
	name      string
	campaign  string
	platforms []string
	procs     []int // nil keeps the spec's
}

var (
	svmScaling  = simWorkload{"svm-scaling", "scaling128", []string{"svm", "svmsmp"}, []int{32, 64, 128}}
	irregularHW = simWorkload{"irregular-hw", "irregular", []string{"smp", "dsm", "smp-msi", "dsm-msi"}, nil}
)

// simSetup is what a simulation workload prepares before timing: its
// expanded cells and their committed references.
type simSetup struct {
	cells []campaign.Cell
	refs  map[string]reference
}

func (w simWorkload) setup() (*simSetup, error) {
	cells, err := loadCells(w.campaign, func(s *campaign.Spec) {
		s.Platforms = w.platforms
		if w.procs != nil {
			s.Procs = w.procs
		}
	})
	if err != nil {
		return nil, err
	}
	refs, err := loadReferences(w.campaign, cells)
	if err != nil {
		return nil, err
	}
	return &simSetup{cells: cells, refs: refs}, nil
}

// dispatchOrder is the order pass number pass hands cells to the pool.
// Cells are grouped by (processor count, application, version), largest
// processor count first so the pass does not end on one long cell; the
// seed shuffles the platforms within each group. Keeping the groups in
// place keeps which heavy cells overlap in the pool, and so the run's
// timing and peak memory, the same from seed to seed.
func dispatchOrder(cells []campaign.Cell, seed, pass uint64) []int {
	rng := rand.New(rand.NewPCG(seed, pass))
	idx := rng.Perm(len(cells))
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := cells[idx[a]].Spec, cells[idx[b]].Spec
		if x.NumProcs != y.NumProcs {
			return x.NumProcs > y.NumProcs
		}
		if x.App != y.App {
			return x.App < y.App
		}
		return x.Version < y.Version
	})
	return idx
}

// passResult is one pass over every cell.
type passResult struct {
	win         window          // the pass's wall, process CPU and stolen time
	cellTimes   []time.Duration // worker-thread CPU time of each server.CellBody call
	cellWalls   []time.Duration // wall time of each server.CellBody call
	work        simWork         // simulated work of the pass
	events      uint64          // trace events, when traced
	sims        int             // harness.Execute calls
	memoHitFrac float64
}

// runPass runs every cell once in order through a fresh memo. With traced
// set, each cell carries a trace.Counting sink and tr records spans.
func runPass(s *simSetup, order []int, traced bool, tr *tracer, res *result) passResult {
	open := &openSpans{}
	log := newExecLog(tr, open)
	memo := harness.NewMemo(nil)
	memo.Exec = log.hook("")
	passID := tr.begin("pass", 0)
	var (
		mu sync.Mutex
		pr passResult
		wg sync.WaitGroup
	)
	work := make(chan int)
	start := readClocks()
	for range min(workers(), len(order)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A simulation runs on its worker's goroutine (the kernel's
			// processors are coroutines of it), so with the goroutine
			// locked to its thread, the thread's CPU time is the cell's.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := range work {
				c := s.cells[i]
				spec := c.Spec
				var sink *trace.Counting
				if traced {
					sink = trace.NewCounting(spec.NumProcs)
					spec.TraceSink = sink
				}
				id := tr.begin("server.CellBody", passID)
				open.push(c.Key, id)
				t0, c0 := time.Now(), threadCPU()
				body, _, code := server.CellBody(memo, spec, false)
				cpu, wall := threadCPU()-c0, time.Since(t0)
				open.pop(c.Key, id)
				tr.end(id)

				var doc cellDoc
				var err error
				if code == 200 {
					doc, err = checkBody(c.Key, body, s.refs[c.Key])
				} else {
					err = fmt.Errorf("%s: status %d: %s", c.Key, code, firstLine(body))
				}
				mu.Lock()
				res.attempted++
				pr.cellTimes = append(pr.cellTimes, cpu)
				pr.cellWalls = append(pr.cellWalls, wall)
				if err != nil {
					res.fail(err.Error())
				} else {
					pr.work.add(doc)
				}
				if sink != nil {
					for k := trace.Kind(1); k < trace.NumKinds; k++ {
						pr.events += sink.Count(k)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, i := range order {
		work <- i
	}
	close(work)
	wg.Wait()
	pr.win = start.since()
	tr.end(passID)
	pr.sims, _ = log.executions()
	st := memo.Stats()
	pr.memoHitFrac = frac(st.MemoHits, st.MemoHits+st.MemoMisses)
	return pr
}

// runPasses runs whole passes, numbered from 0: passes until their wall
// time reaches budget, or exactly n passes when n > 0. Stopping at the
// first pass past the budget, not the nearest, keeps svm-scaling, whose
// passes take 15–20 s on a 2-vCPU host, at two passes of a 30 s budget
// while the host's speed drifts.
func runPasses(s *simSetup, seed uint64, budget time.Duration, n int, traced bool, tr *tracer, res *result) []passResult {
	var (
		out     []passResult
		elapsed time.Duration
	)
	for p := 0; ; p++ {
		pr := runPass(s, dispatchOrder(s.cells, seed, uint64(p)), traced, tr, res)
		out = append(out, pr)
		elapsed += pr.win.wall
		if n > 0 && len(out) == n || n <= 0 && elapsed >= budget {
			return out
		}
	}
}

func (w simWorkload) run(o options) (*result, error) {
	s, setup, err := timeSetup(setupReps, w.setup, nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		passes := runPasses(s, o.seed, budget, 0, false, nil, res)
		checkSameWork(res, passes)
		var (
			win          window
			refs         uint64
			times, walls []time.Duration
		)
		for _, p := range passes {
			win.add(p.win)
			refs += p.work.refs
			times = append(times, p.cellTimes...)
			walls = append(walls, p.cellWalls...)
		}
		n := len(times)
		addEndToEnd(res, setup, n, refs, win, millis(times))
		res.note("cell_wall_ms_p50", quantile(millis(walls), 0.5), "ms", n)
		res.note("cell_wall_ms_p90", quantile(millis(walls), 0.9), "ms", n)
		return res, nil
	}

	// Traced run: a warm-up pass (the first pass in a process also grows
	// the heap, which costs CPU the later ones do not pay), untraced passes
	// for half the budget, then as many traced passes (same dispatch
	// orders) under spans, trace.Counting sinks and a CPU profile.
	// Per-layer figures are per pass.
	runPass(s, dispatchOrder(s.cells, o.seed, 0), false, nil, res)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := runPasses(s, o.seed, budget/2, 0, false, nil, res)
	runtime.ReadMemStats(&after)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := runPasses(s, o.seed, 0, len(plain), true, tr, res)
	pprof.StopCPUProfile()
	checkSameWork(res, append(plain, traced...))

	k := float64(len(traced))
	var plainCPU, tracedCPU time.Duration
	var events uint64
	for i := range traced {
		plainCPU += plain[i].win.cpu
		tracedCPU += traced[i].win.cpu
		events += traced[i].events
	}
	work := traced[0].work
	layerNs, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	addLayerMetrics(res, layerNs, work, k)
	spans := tr.spans
	self := selfTimes(spans)
	res.add("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6/k, "MB", 0)
	res.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC)/k, "count", 0)
	res.add("harness.execute_ms_total", sumMillis(durations(spans, "harness.Execute"))/k, "ms", 0)
	res.add("server.render_ms_total", float64(self["server.CellBody"].Nanoseconds())/1e6/k, "ms", 0)
	res.add("trace.events", float64(events)/k, "count", 0)
	res.add("trace.overhead_frac", tracedCPU.Seconds()/plainCPU.Seconds()-1, "frac", 0)
	res.add("harness.memo_hit_frac", traced[0].memoHitFrac, "frac", 0)
	res.add("harness.executions", float64(traced[0].sims), "count", 0)
	// The serving layers do not run on this workload.
	for _, m := range []struct{ name, unit string }{
		{"server.handler_ms_p50", "ms"}, {"server.handler_ms_p99", "ms"},
		{"store.hit_frac", "frac"}, {"store.puts", "count"},
		{"store.get_us_p50", "us"}, {"store.put_us_p50", "us"},
		{"cluster.forwards", "count"}, {"cluster.forward_cache_hits", "count"},
		{"cluster.fallbacks", "count"}, {"cluster.sims_per_unique_cell", "sims/cell"},
	} {
		res.add(m.name, 0, m.unit, 0)
	}
	work.addMetrics(res, 1)
	return res, writeTraceFiles(o, spans, prof.Bytes())
}

// checkSameWork requires every pass to have simulated identical work: the
// simulator is deterministic, and dispatch order and tracing must not
// change what it computes.
func checkSameWork(res *result, passes []passResult) {
	for i, p := range passes[1:] {
		if p.work != passes[0].work {
			res.broken = append(res.broken, fmt.Sprintf("pass %d simulated %+v, pass 0 %+v", i+1, p.work, passes[0].work))
		}
	}
}

// addLayerMetrics reports each layer's share of the profiled CPU time and
// the host cost per simulated event of the cache and sim layers. work is
// the simulated work of one pass and k the number of profiled passes.
func addLayerMetrics(res *result, layerNs map[string]int64, work simWork, k float64) {
	var total int64
	for _, ns := range layerNs {
		total += ns
	}
	for _, l := range layers {
		res.add(l+".self_frac", frac(uint64(layerNs[l]), uint64(total)), "frac", 0)
	}
	perEvent := func(ns int64, events uint64) float64 {
		if events == 0 {
			return 0
		}
		return float64(ns) / k / float64(events)
	}
	res.add("cache.host_ns_per_invalidation", perEvent(layerNs["cache"], work.invalidations), "ns", 0)
	res.add("sim.host_ns_per_ref", perEvent(layerNs["sim"], work.refs), "ns", 0)
}

// writeTraceFiles keeps the traced run's spans and profile when --out is
// set.
func writeTraceFiles(o options, spans []span, prof []byte) error {
	if o.out == "" {
		return nil
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := writeChrome(base+".spans.json", spans); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o666)
}

// addEndToEnd reports the gated end-to-end metrics from the set-up times,
// the n cells delivered, their simulated references, the window that
// delivered them, and the time of each cell. Throughput is given per CPU
// second, which hypervisor steal does not move, and per second of wall
// time less steal, which also counts time spent off the CPU (waiting on
// locks, channels or I/O). Cell times are summarized by their geometric
// mean, which weighs every cell alike, and their 90th percentile; the
// median is printed only — on svm-scaling the cell times have a gap at the
// median, so it jumps between runs.
func addEndToEnd(res *result, setup setupTimes, n int, refs uint64, win window, cellMs []float64) {
	var logSum float64
	for _, m := range cellMs {
		logSum += math.Log(m)
	}
	res.add("setup_s", setup.cpu, "s", 0)
	res.add("cells_per_s", float64(n)/win.ownWall().Seconds(), "1/s", n)
	res.add("cells_per_cpu_s", float64(n)/win.cpu.Seconds(), "1/s", n)
	res.add("sim_refs_per_cpu_s", float64(refs)/win.cpu.Seconds(), "1/s", n)
	res.add("cell_ms_gmean", math.Exp(logSum/float64(max(len(cellMs), 1))), "ms", len(cellMs))
	res.add("cell_ms_p90", quantile(cellMs, 0.9), "ms", len(cellMs))
	res.add("peak_rss_mb", peakRSSMB(), "MB", 0)
	res.note("cell_ms_p50", quantile(cellMs, 0.5), "ms", len(cellMs))
	res.note("setup_wall_s", setup.wall, "s", 0)
	res.note("sim_refs_per_s", float64(refs)/win.ownWall().Seconds(), "1/s", n)
	res.note("steal_frac", win.steal.Seconds()/win.wall.Seconds(), "frac", 0)
	res.note("pool_utilisation", win.cpu.Seconds()/(win.ownWall().Seconds()*float64(workers())), "frac", 0)
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sumMillis(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return float64(t.Nanoseconds()) / 1e6
}

// firstLine returns the first line of a response body, for messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b)
}
