package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// boomApp is a deliberately-misbehaving test-only application: on any run
// with more than one processor, the highest-numbered processor panics after
// the first barrier. Its uniprocessor run (the speedup baseline) succeeds,
// so figures show a completed baseline and an error cell — the exact
// containment scenario the parallel engine must survive.
type boomApp struct{}

func (boomApp) Name() string { return "zz-boom" }

func (boomApp) Versions() []core.Version {
	return []core.Version{{Name: "orig", Class: core.Orig, Desc: "panics on the last processor when P > 1"}}
}

func (boomApp) Build(version string, scale float64, as *mem.AddressSpace, np int) (core.Instance, error) {
	return boomInstance{}, nil
}

type boomInstance struct{}

func (boomInstance) Body(p *sim.Proc) {
	p.Compute(100)
	p.Barrier()
	if p.NP() > 1 && p.ID() == p.NP()-1 {
		panic("boom: deliberate test failure")
	}
	p.Barrier()
}

func (boomInstance) Verify() error { return nil }

func init() { core.Register(boomApp{}) }

// parallelCells is a small matrix of speedup and plain cells for the
// parallel-engine tests.
var parallelCells = []struct {
	app, version, plat string
	speedup            bool
}{
	{"radix", "orig", "svm", true},
	{"radix", "local", "svm", true},
	{"radix", "orig", "smp", true},
	{"radix", "orig", "dsm", false},
	{"lu", "orig", "svm", false},
}

// renderCells reads parallelCells the way a figure does: speedup cells
// through Speedup, the rest through Run, one line per cell.
func renderCells(r *Runner) (string, error) {
	var b strings.Builder
	for _, c := range parallelCells {
		if c.speedup {
			s, err := r.Speedup(c.app, c.version, c.plat)
			fmt.Fprintf(&b, "%s/%s@%s %.4f %v\n", c.app, c.version, c.plat, s, err)
			continue
		}
		run, err := r.Run(c.app, c.version, c.plat)
		if err != nil {
			fmt.Fprintf(&b, "%s/%s@%s %v\n", c.app, c.version, c.plat, err)
			continue
		}
		fmt.Fprintf(&b, "%s/%s@%s %d\n", c.app, c.version, c.plat, run.EndTime)
	}
	return b.String(), nil
}

func TestParallelMatchesSerial(t *testing.T) {
	serial := NewRunner(4, 0.125)
	serialOut, _ := serial.Render(1, renderCells)
	par := NewRunner(4, 0.125)
	parOut, _ := par.Render(8, renderCells)
	if serialOut != parOut {
		t.Errorf("serial render:\n%s\nparallel render:\n%s", serialOut, parOut)
	}
	for _, c := range parallelCells {
		a, err := serial.Run(c.app, c.version, c.plat)
		if err != nil {
			t.Fatalf("serial %v: %v", c, err)
		}
		b, err := par.Run(c.app, c.version, c.plat)
		if err != nil {
			t.Fatalf("parallel %v: %v", c, err)
		}
		if a.EndTime != b.EndTime {
			t.Errorf("%s/%s@%s: serial end time %d != parallel %d", c.app, c.version, c.plat, a.EndTime, b.EndTime)
		}
		if c.speedup {
			sa, _ := serial.Speedup(c.app, c.version, c.plat)
			sb, _ := par.Speedup(c.app, c.version, c.plat)
			if sa != sb {
				t.Errorf("%s/%s@%s: serial speedup %v != parallel %v", c.app, c.version, c.plat, sa, sb)
			}
		}
	}
}

func TestPanickingCellContained(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRunner(4, 0.125)
	r.Render(4, func(r *Runner) (string, error) {
		r.Speedup("zz-boom", "orig", "svm")
		r.Speedup("radix", "orig", "svm")
		return "", nil
	})

	// The bad cell is memoized as an error naming the failing processor.
	_, err := r.Run("zz-boom", "orig", "svm")
	var pe *sim.ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *sim.ProcPanicError", err)
	}
	if pe.Proc != 3 {
		t.Errorf("failing proc = %d, want 3", pe.Proc)
	}
	// Its uniprocessor baseline succeeded.
	if _, err := r.Baseline("zz-boom", "svm"); err != nil {
		t.Errorf("baseline should succeed at P=1: %v", err)
	}
	// The healthy cell completed.
	if _, err := r.Speedup("radix", "orig", "svm"); err != nil {
		t.Errorf("healthy cell failed: %v", err)
	}
	// The failure is reported once.
	fails := r.FailedCells()
	if len(fails) != 1 || !strings.Contains(fails[0], "zz-boom") {
		t.Errorf("FailedCells = %v, want exactly the zz-boom cell", fails)
	}

	// No parked processor goroutines leaked.
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines grew from %d to %d", before, n)
	}
}

func TestErrorRowKeepsFigureAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig2 matrix skipped in -short mode")
	}
	r := NewRunner(2, 0.125)
	f, err := FindFigure("fig2")
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Render(8, f.Run)
	if err != nil {
		t.Fatalf("figure aborted instead of printing an error row: %v", err)
	}
	var boomRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "zz-boom") {
			boomRow = line
		}
	}
	if !strings.Contains(boomRow, "error") {
		t.Errorf("zz-boom row missing error cells:\n%s", out)
	}
	if !strings.Contains(out, "! zz-boom/orig@svm:") {
		t.Errorf("missing failure note under the table:\n%s", out)
	}
	for _, app := range []string{"lu", "radix", "ocean"} {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, app) && strings.Contains(line, "error") {
				t.Errorf("healthy app %s rendered as error:\n%s", app, line)
			}
		}
	}
}

// TestRenderPrefetchesEveryCell: for every figure and the headline, the
// prefetch executes exactly one simulation per distinct cell the renderer
// reads, and the final render reads pure cache.
func TestRenderPrefetchesEveryCell(t *testing.T) {
	renders := map[string]func(*Runner) (string, error){"headline": HeadlineSpeedups}
	for _, f := range Figures() {
		renders[f.ID] = f.Run
	}
	for id, render := range renders {
		var execs atomic.Uint64
		m := NewMemo(nil)
		m.Exec = func(s Spec) (*stats.Run, error) {
			execs.Add(1)
			return &stats.Run{EndTime: 100 + uint64(s.NumProcs)}, nil
		}
		r := NewRunnerWith(4, 0.125, m)
		specs := r.Specs(render)
		keys := map[string]bool{}
		for _, s := range specs {
			keys[s.MemoKey()] = true
		}
		if len(specs) == 0 || len(keys) != len(specs) {
			t.Errorf("%s: recorded %d specs, %d distinct; want a non-empty list of distinct specs", id, len(specs), len(keys))
		}
		var renderExecs uint64
		if _, err := r.Render(2, func(r *Runner) (string, error) {
			before := execs.Load()
			out, err := render(r)
			renderExecs = execs.Load() - before
			return out, err
		}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if renderExecs != 0 {
			t.Errorf("%s: final render executed %d simulation(s), want 0", id, renderExecs)
		}
		if got := execs.Load(); got != uint64(len(keys)) {
			t.Errorf("%s: prefetch executed %d simulation(s), want %d (one per distinct spec)", id, got, len(keys))
		}
	}
}

func TestForEach(t *testing.T) {
	const n, workers = 100, 3
	var calls [n]atomic.Int32
	var running, peak atomic.Int32
	ForEach(context.Background(), workers, n, func(i int) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		calls[i].Add(1)
		running.Add(-1)
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times, want 1", i, c)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d calls ran at once, want at most %d", p, workers)
	}

	// Cancel while every worker is inside a call: those calls finish, and
	// no further index starts.
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	var inside sync.WaitGroup
	inside.Add(workers)
	release := make(chan struct{})
	go func() {
		inside.Wait()
		cancel()
		close(release)
	}()
	ForEach(ctx, workers, n, func(i int) {
		started.Add(1)
		inside.Done()
		<-release
	})
	if s := started.Load(); s != workers {
		t.Errorf("%d indices started, want %d (none after cancellation)", s, workers)
	}

	// workers <= 0 falls back to GOMAXPROCS, and n = 0 calls nothing.
	var zero atomic.Int32
	ForEach(context.Background(), 0, 0, func(int) { zero.Add(1) })
	ForEach(context.Background(), -1, 5, func(int) { zero.Add(1) })
	if z := zero.Load(); z != 5 {
		t.Errorf("got %d calls, want 5", z)
	}
}

func TestMemoKeyCoversDiagnosticFields(t *testing.T) {
	base := Spec{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 1}
	variants := []Spec{
		{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 1, FreeCSFaults: true},
		{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 2},
		{App: "lu", Version: "orig", Platform: "svm", NumProcs: 16, Scale: 1, SkipVerify: true},
	}
	for _, v := range variants {
		if v.memoKey() == base.memoKey() {
			t.Errorf("memo key %q does not distinguish %+v", base.memoKey(), v)
		}
	}
	if base.memoKey() != base.memoKey() {
		t.Error("memo key not stable")
	}
}
