package main

import (
	"bytes"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// The benchmark reads campaigns/ relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smallSetup is a cheap slice of both simulation workloads: the irregular
// cells at P <= 2 on every hardware preset, and the lu cells at P = 32 on
// svm and svmsmp, so page-engine counters are covered too.
func smallSetup(t *testing.T) *simSetup {
	t.Helper()
	s := &simSetup{refs: map[string]reference{}}
	for _, part := range []struct {
		w    simWorkload
		keep func(campaign.Cell) bool
	}{
		{irregularHW, func(c campaign.Cell) bool { return c.Spec.NumProcs <= 2 }},
		{svmScaling, func(c campaign.Cell) bool { return c.Spec.NumProcs == 32 && c.Spec.App == "lu" }},
	} {
		full, err := part.w.setup()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range full.cells {
			if part.keep(c) {
				s.cells = append(s.cells, c)
				s.refs[c.Key] = full.refs[c.Key]
			}
		}
	}
	return s
}

func TestSimulatedWorkIsIdenticalAcrossRunsSeedsAndTracing(t *testing.T) {
	s := smallSetup(t)
	res := &result{}
	base := runPass(s, dispatchOrder(s.cells, 1, 0), false, nil, res)
	for _, tc := range []struct {
		name   string
		seed   uint64
		traced bool
	}{
		{"same seed again", 1, false},
		{"another seed", 2, false},
		{"traced", 1, true},
		{"traced, another seed", 3, true},
	} {
		var tr *tracer
		if tc.traced {
			tr = newTracer()
		}
		got := runPass(s, dispatchOrder(s.cells, tc.seed, 0), tc.traced, tr, res)
		if got.work != base.work {
			t.Errorf("%s: simulated %+v, first run %+v", tc.name, got.work, base.work)
		}
		if tc.traced && (got.events == 0 || len(durations(tr.spans, "harness.Execute")) != len(s.cells)) {
			t.Errorf("%s: %d trace events, %d Execute spans for %d cells", tc.name, got.events,
				len(durations(tr.spans, "harness.Execute")), len(s.cells))
		}
	}
	// Every cell's fingerprint and end time matched the committed journal
	// in every pass, so the documents are identical across passes too.
	if res.failed != 0 || res.attempted != 5*len(s.cells) {
		t.Fatalf("%d of %d cells failed: %v", res.failed, res.attempted, res.errs)
	}
	if base.work.refs == 0 || base.work.pageFetches == 0 || base.work.busTxns == 0 {
		t.Errorf("work %+v misses a protocol family", base.work)
	}
}

func TestDispatchOrderIsASeededPermutationLargestFirst(t *testing.T) {
	s := smallSetup(t)
	a, b := dispatchOrder(s.cells, 1, 0), dispatchOrder(s.cells, 2, 0)
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 give the same order")
	}
	if !slices.Equal(a, dispatchOrder(s.cells, 1, 0)) {
		t.Error("seed 1 gives two different orders")
	}
	seen := map[int]bool{}
	for i, idx := range a {
		seen[idx] = true
		if i > 0 && s.cells[a[i-1]].Spec.NumProcs < s.cells[idx].Spec.NumProcs {
			t.Fatalf("order not largest-P first at %d", i)
		}
	}
	if len(seen) != len(s.cells) {
		t.Errorf("order covers %d of %d cells", len(seen), len(s.cells))
	}
}

func TestMismatchAgainstJournalFails(t *testing.T) {
	s := smallSetup(t)
	s.cells = s.cells[:3]
	good := maps.Clone(s.refs)
	bad := s.refs[s.cells[0].Key]
	bad.FP = "0000000000000000"
	s.refs[s.cells[0].Key] = bad
	wrongEnd := s.refs[s.cells[1].Key]
	wrongEnd.End++
	s.refs[s.cells[1].Key] = wrongEnd

	res := &result{}
	runPass(s, dispatchOrder(s.cells, 1, 0), false, nil, res)
	if res.failed != 2 || res.correct() {
		t.Fatalf("failed = %d (%v), want the 2 altered cells", res.failed, res.errs)
	}
	s.refs = good
	res = &result{}
	runPass(s, dispatchOrder(s.cells, 1, 0), false, nil, res)
	if !res.correct() {
		t.Fatalf("unaltered references failed: %v", res.errs)
	}
}

func TestServeFleetSimulatesEachCellOnceAndNeverFallsBack(t *testing.T) {
	fc, err := loadFleetCells()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	res := &result{}
	rr, err := runRound(fc, 1, 0, tr, res)
	if err != nil {
		t.Fatal(err)
	}
	c := rr.counters
	if !res.correct() || len(rr.load.latencies) != coldReqs+warmReqs {
		t.Fatalf("%d requests, %d answered, failed %d: %v %v", res.attempted, len(rr.load.latencies), res.failed, res.errs, res.broken)
	}
	if c.sims == 0 || c.sims != c.uniqueSims || c.fallbacks != 0 {
		t.Errorf("sims %d for %d unique cells, %d fallbacks", c.sims, c.uniqueSims, c.fallbacks)
	}
	// Every tier of the round was used.
	if c.memo.MemoHits == 0 || c.forwardHits == 0 || c.memo.StoreHits == 0 || c.forwards == 0 || c.store.Puts == 0 {
		t.Errorf("counters %+v: the round missed a tier", c)
	}
	if len(rr.gets) != c.uniqueSims || len(rr.puts) != c.uniqueSims {
		t.Errorf("%d store reads and %d writes checked for %d simulated cells", len(rr.gets), len(rr.puts), c.uniqueSims)
	}
	// The same round simulates the same cells again.
	again, err := runRound(fc, 1, 0, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if again.work != rr.work || rr.work.refs == 0 {
		t.Errorf("round 0 simulated %+v, then %+v", rr.work, again.work)
	}
	// Forwarded calls are parented to the entry node's call for the cell.
	for _, s := range tr.spans {
		if s.Name == "server.ServeHTTP.forwarded" && (s.Parent == 0 || tr.spans[s.Parent-1].Name != "server.ServeHTTP") {
			t.Fatalf("forwarded span %+v has parent %d", s, s.Parent)
		}
	}
}

func TestCommandFailsWithoutTheRepository(t *testing.T) {
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "irregular-hw", "--seconds", "1"}, &stdout, &stderr); code == 0 {
		t.Fatalf("exit 0 with no campaigns/ directory")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("printed a result: %s", stdout.String())
	}
}

func TestCPUClocksCountBusyTime(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	thread0, process0 := threadCPU(), processCPU()
	spin(100 * time.Millisecond)
	thread, process := threadCPU()-thread0, processCPU()-process0
	if thread < 50*time.Millisecond || process < thread {
		t.Errorf("100ms of spinning read %v on the thread clock and %v on the process clock", thread, process)
	}
}
