package svm

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// These tests pin the paper's §6 performance-debugging tool (svmsim -hot)
// on the platform where it matters most: a trace.Counting sink installed on
// the kernel reports which pages and locks carry the page-grained traffic.

// profile runs body on a fresh np-node SVM machine with a counting sink
// installed and returns the sink and the run.
func profile(t *testing.T, as *mem.AddressSpace, np int, body func(p *sim.Proc)) (*trace.Counting, *sim.Kernel) {
	t.Helper()
	k := sim.New(New(as, DefaultParams(), np), sim.Config{NumProcs: np})
	c := trace.NewCounting(np)
	k.SetTraceSink(c)
	if _, err := k.RunErr("prof", body); err != nil {
		t.Fatal(err)
	}
	return c, k
}

func TestProfilerHotPagesAndLocks(t *testing.T) {
	as := mem.NewAddressSpace(4096, 4)
	hot := as.AllocPages(4096)
	cold := as.AllocPages(4096)
	as.SetHome(hot, 4096, 0)
	as.SetHome(cold, 4096, 0)
	c, _ := profile(t, as, 4, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Lock(7)
			if p.ID() != 0 {
				p.Write(hot) // everyone dirties the hot page
			}
			p.Unlock(7)
			p.Barrier()
		}
		if p.ID() == 1 {
			p.Read(cold)
		}
		p.Barrier()
	})

	pages := c.PageTotals()
	if len(pages) == 0 {
		t.Fatal("no hot pages recorded")
	}
	if pages[0].Page != as.PageOf(hot) {
		t.Errorf("hottest page = %d, want %d", pages[0].Page, as.PageOf(hot))
	}
	if pages[0].Writers != 3 {
		t.Errorf("hot page writers = %d, want 3", pages[0].Writers)
	}
	if pages[0].Fetches == 0 || pages[0].Diffs == 0 {
		t.Errorf("hot page fetches=%d diffs=%d, want > 0", pages[0].Fetches, pages[0].Diffs)
	}

	found := false
	for _, l := range c.LockTotals() {
		if l.Lock == 7 {
			found = true
			if l.Acquires < 12 {
				t.Errorf("lock 7 acquires = %d, want >= 12", l.Acquires)
			}
			if l.Transfers == 0 {
				t.Error("lock 7 recorded no inter-node transfers")
			}
		}
	}
	if !found {
		t.Fatal("lock 7 missing from profile")
	}

	rep := c.Report(3)
	if !strings.Contains(rep, "hot pages") || !strings.Contains(rep, "hot locks") {
		t.Errorf("malformed report:\n%s", rep)
	}
}

// With no sink installed the kernel keeps its nil-sink fast path: nothing
// is counted unless a caller asks for it.
func TestProfilerDisabledByDefault(t *testing.T) {
	as := mem.NewAddressSpace(4096, 2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	k := sim.New(New(as, DefaultParams(), 2), sim.Config{NumProcs: 2})
	k.Run("noprof", func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Read(a)
		}
		p.Barrier()
	})
	if k.Tracing() {
		t.Error("a run with no sink installed is tracing")
	}
}

// A fresh sink per run sees fresh totals: the platform resets between runs,
// so the second run's profile equals the first's.
func TestProfilerResetsBetweenRuns(t *testing.T) {
	as := mem.NewAddressSpace(4096, 2)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	body := func(p *sim.Proc) {
		if p.ID() == 1 {
			p.Read(a)
		}
		p.Barrier()
	}
	first, k := profile(t, as, 2, body)
	second := trace.NewCounting(2)
	k.SetTraceSink(second)
	k.Run("again", body)
	want := first.PageTotals()[0].Fetches
	if got := second.PageTotals()[0].Fetches; got != want {
		t.Errorf("profile not reset: %d fetches in the second run, want %d", got, want)
	}
	if got := first.PageTotals()[0].Fetches; got != want {
		t.Errorf("first run's sink fed by the second run: %d fetches", got)
	}
}

// TestCountingMatchesAggregateCounters pins that the counting sink
// reproduces the run's counter totals exactly: the -hot report is derived
// from the same protocol event stream the platform accounts in
// stats.Counters.
func TestCountingMatchesAggregateCounters(t *testing.T) {
	as := mem.NewAddressSpace(4096, 4)
	data := as.AllocPages(16 * 4096)
	as.DistributeBlocked(data, 16*4096)
	k := sim.New(New(as, DefaultParams(), 4), sim.Config{NumProcs: 4})
	c := trace.NewCounting(4)
	k.SetTraceSink(c)
	run := k.Run("match", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			p.Lock(1)
			p.WriteRange(data+uint64(i*4096), 256)
			p.Unlock(1)
			p.Barrier()
		}
	})

	agg := run.AggregateCounters()
	for _, tc := range []struct {
		kind trace.Kind
		want uint64
	}{
		{trace.PageFetch, agg.PageFetches},
		{trace.TwinCreate, agg.TwinsMade},
		{trace.DiffCreate, agg.DiffsCreated},
		{trace.DiffApply, agg.DiffsApplied},
		{trace.Invalidate, agg.Invalidations},
		{trace.PageFault, agg.PageFaults},
		{trace.LockGrant, agg.LockAcquires},
	} {
		if got := c.Count(tc.kind); got != tc.want {
			t.Errorf("%s events = %d, counters say %d", tc.kind, got, tc.want)
		}
	}

	// Per-page fetch totals must also sum to the counter.
	var sum uint64
	for _, pp := range c.PageTotals() {
		sum += pp.Fetches
	}
	if sum != agg.PageFetches {
		t.Errorf("per-page fetches sum to %d, counters say %d", sum, agg.PageFetches)
	}
}

// TestProfileReportDeterministic pins -hot output ordering: two identical
// runs must render byte-identical reports (sort keys break all ties).
func TestProfileReportDeterministic(t *testing.T) {
	render := func() string {
		as := mem.NewAddressSpace(4096, 4)
		data := as.AllocPages(32 * 4096)
		as.DistributeBlocked(data, 32*4096)
		c, _ := profile(t, as, 4, func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				p.Lock(i % 3)
				p.WriteRange(data+uint64(((p.ID()+i)%32)*4096), 512)
				p.Unlock(i % 3)
				p.Barrier()
			}
		})
		return c.Report(10)
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("profile report not deterministic:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// The report's home column comes from the fetch's NIC occupancy event; on
// the flat SVM platform that is the address space's placement.
func TestHotPageHomeMatchesAddressSpace(t *testing.T) {
	const np = 4
	as := mem.NewAddressSpace(4096, np)
	data := as.AllocPages(16 * 4096)
	as.DistributeBlocked(data, 16*4096)
	c, _ := profile(t, as, np, func(p *sim.Proc) {
		p.ReadRange(data, 16*4096)
		p.Barrier()
	})
	pages := c.PageTotals()
	homes := map[int]bool{}
	for _, pt := range pages {
		if want := as.Home(pt.Page * 4096); pt.Home != want {
			t.Errorf("page %d: home %d, address space says %d", pt.Page, pt.Home, want)
		}
		homes[pt.Home] = true
	}
	if len(pages) == 0 || len(homes) != np {
		t.Errorf("%d fetched pages over homes %v; want pages homed on all %d nodes", len(pages), homes, np)
	}
}

// The writer set covers every processor, not just the first 64.
func TestCountingWritersAtP128(t *testing.T) {
	const np = 128
	as := mem.NewAddressSpace(4096, np)
	a := as.AllocPages(4096)
	as.SetHome(a, 4096, 0)
	c, _ := profile(t, as, np, func(p *sim.Proc) {
		if p.ID() == 0 || p.ID() == 100 {
			p.Write(a)
		}
		p.Barrier()
	})
	pages := c.PageTotals()
	if len(pages) != 1 || pages[0].Writers != 2 {
		t.Errorf("page totals %+v, want one page with writers=2", pages)
	}
}
