package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestEmitOffIsFree(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	allocs := testing.AllocsPerRun(1000, func() {
		k.Emit(trace.PageFetch, 1, 100, 42, 7)
	})
	if allocs != 0 {
		t.Errorf("Emit with no sink allocates %.1f per call, want 0", allocs)
	}
}

func TestKernelEmitsLockAndBarrierEvents(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 4})
	c := trace.NewCounting(4)
	k.SetTraceSink(c)
	_, err := k.RunErr("locks", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Lock(7)
			p.Compute(50)
			p.Unlock(7)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Count(trace.LockRequest); got != 12 {
		t.Errorf("LockRequest events = %d, want 12", got)
	}
	if got := c.Count(trace.LockGrant); got != 12 {
		t.Errorf("LockGrant events = %d, want 12", got)
	}
	// 4 procs x 3 acquires with interleaving: at least the 3 inter-proc
	// handoffs must be transfers, and same-proc re-acquires must not be.
	xfers := c.Count(trace.LockTransfer)
	if xfers == 0 || xfers > 11 {
		t.Errorf("LockTransfer events = %d, want within (0, 11]", xfers)
	}
	if got := c.Count(trace.Barrier); got != 4 {
		t.Errorf("Barrier events = %d, want 4 (one per proc)", got)
	}
	locks := c.LockTotals()
	if len(locks) != 1 || locks[0].Lock != 7 || locks[0].Acquires != 12 {
		t.Errorf("LockTotals = %+v", locks)
	}
}

// A sink installed with SetTraceSink feeds every run until it is replaced:
// swapping in a fresh sink between runs gives per-run totals, and the
// replaced sink sees nothing of the next run.
func TestRunSinksClearedBetweenRuns(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	body := func(p *Proc) { p.Lock(1); p.Unlock(1); p.Barrier() }
	first, second := trace.NewCounting(2), trace.NewCounting(2)
	k.SetTraceSink(first)
	if _, err := k.RunErr("a", body); err != nil {
		t.Fatal(err)
	}
	if got := first.Count(trace.LockGrant); got != 2 {
		t.Fatalf("first run grants = %d, want 2", got)
	}
	k.SetTraceSink(second)
	if _, err := k.RunErr("b", body); err != nil {
		t.Fatal(err)
	}
	if got := first.Count(trace.LockGrant); got != 2 {
		t.Errorf("replaced sink leaked into the next run: grants now %d", got)
	}
	if got := second.Count(trace.LockGrant); got != 2 {
		t.Errorf("second run grants = %d, want 2", got)
	}
	k.SetTraceSink(nil)
	if _, err := k.RunErr("c", body); err != nil {
		t.Fatal(err)
	}
	if k.Tracing() || second.Count(trace.LockGrant) != 2 {
		t.Errorf("removed sink still fed: tracing=%v grants=%d", k.Tracing(), second.Count(trace.LockGrant))
	}
}

func TestDeadlockErrorCarriesRecentEvents(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	k.SetTraceRing(16)
	_, err := k.RunErr("dead", func(p *Proc) {
		if p.ID() == 0 {
			p.Lock(1)
			p.Barrier() // holds lock 1 forever
		} else {
			p.Lock(1) // waits forever
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(de.Recent) == 0 {
		t.Fatal("DeadlockError.Recent is empty with a trace ring installed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "protocol events") || !strings.Contains(msg, "LockRequest") {
		t.Errorf("rendered error missing the trace dump:\n%s", msg)
	}
}

func TestProcPanicErrorCarriesRecentEvents(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	k.SetTraceRing(8)
	_, err := k.RunErr("boom", func(p *Proc) {
		p.Lock(3)
		p.Unlock(3)
		if p.ID() == 1 {
			panic("die")
		}
		p.Barrier()
	})
	var pe *ProcPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProcPanicError", err)
	}
	if len(pe.Recent) == 0 {
		t.Fatal("ProcPanicError.Recent is empty with a trace ring installed")
	}
	if !strings.Contains(err.Error(), "protocol events") {
		t.Errorf("rendered error missing the trace dump:\n%s", err.Error())
	}
}

func TestNoRingMeansNoRecentEvents(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	_, err := k.RunErr("dead", func(p *Proc) {
		if p.ID() == 0 {
			p.Lock(1)
			p.Barrier()
		} else {
			p.Lock(1)
		}
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(de.Recent) != 0 {
		t.Errorf("Recent = %d events without a ring, want 0", len(de.Recent))
	}
	if strings.Contains(err.Error(), "protocol events") {
		t.Error("error renders a trace dump section without a ring")
	}
}

func TestSampleIntervalFeedsTimeline(t *testing.T) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	tl := &trace.Timeline{}
	k.SetTraceSink(tl)
	k.SetSampleInterval(1000)
	run, err := k.RunErr("sampled", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Compute(500)
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Samples) < 2 {
		t.Fatalf("got %d samples over a %d-cycle run at interval 1000", len(tl.Samples), run.EndTime)
	}
	for i := 1; i < len(tl.Samples); i++ {
		if tl.Samples[i].Time <= tl.Samples[i-1].Time {
			t.Errorf("sample times not increasing: %d then %d", tl.Samples[i-1].Time, tl.Samples[i].Time)
		}
	}
	// The final sample is taken at run end with the complete breakdown.
	last := tl.Samples[len(tl.Samples)-1]
	var total uint64
	for _, per := range last.Cycles {
		for _, c := range per {
			total += c
		}
	}
	if total == 0 {
		t.Error("final sample has an all-zero breakdown")
	}
}

func BenchmarkEmitNilSink(b *testing.B) {
	k := New(&NopPlatform{}, Config{NumProcs: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Emit(trace.PageFetch, 0, uint64(i), 1, 2)
	}
}

// BenchmarkKernelTracingOff guards the no-regression-when-off requirement at
// the whole-kernel level: the body synchronizes heavily so every Emit site in
// the lock/barrier path runs with no sink installed.
func BenchmarkKernelTracingOff(b *testing.B) {
	k := New(&NopPlatform{}, Config{NumProcs: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Run("bench", func(p *Proc) {
			for j := 0; j < 100; j++ {
				p.Lock(1)
				p.Compute(10)
				p.Unlock(1)
			}
			p.Barrier()
		})
	}
}
