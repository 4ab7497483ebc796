package main

import (
	"bytes"
	"maps"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"innermost repo frame wins", []string{
			"runtime.mallocgc",
			"repro/internal/cache.(*Cache).invalidatePage",
			"repro/internal/protocol.(*PageEngine).acquire",
			"repro/internal/sim.(*Kernel).step",
			"repro/internal/harness.Execute",
		}, "cache"},
		{"platform packages fold into protocol", []string{
			"repro/internal/svmsmp.(*Platform).Read",
			"repro/internal/sim.(*Proc).Read",
		}, "protocol"},
		{"app subpackages fold into apps", []string{
			"repro/internal/apps/bfs.(*instance).expand.func1",
			"repro/internal/sim.(*Kernel).Run",
		}, "apps"},
		{"an unmapped repo package counts as harness", []string{
			"repro/internal/newpkg.F",
		}, "harness"},
		{"coroswitch counts as sim", []string{
			"runtime.coroswitch",
			"iter.Pull[...].func1",
			"repro/internal/apps/kvstore.(*instance).Body",
		}, "sim"},
		{"iter.Pull counts as sim", []string{
			"iter.Pull[go.shape.struct {}].func2",
			"repro/internal/apps/pipeline.(*instance).Body",
		}, "sim"},
		{"no repo frame goes to runtime", []string{
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "runtime"},
		{"the benchmark's own frames are not repo layers", []string{
			"net/http.(*conn).serve",
			"main.(*fleet).load.func1",
		}, "runtime"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestFoldTraces(t *testing.T) {
	text := `File: hostbench
Type: cpu
Duration: 1s, Total samples = 140ms (14.00%)
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             repro/internal/cache.newLevel
             repro/internal/protocol.NewLineEngine
-----------+-------------------------------------------------------
      10ms   repro/internal/sim.(*Proc).access
             repro/internal/sim.(*Proc).Read (inline)
             repro/internal/apps/bfs.(*instance).expandShared
-----------+-------------------------------------------------------
      1.1s   runtime.coroswitch
             iter.Pull[go.shape.struct {}].func1
             repro/internal/apps/kvstore.(*instance).Body
-----------+-------------------------------------------------------
      30ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
`
	got, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 20e6, "sim": 1110e6, "runtime": 30e6}
	if !maps.Equal(got, want) {
		t.Errorf("folded %v, want %v", got, want)
	}
	if _, err := foldTraces("-----------+---\n   1zz   main.f\n"); err == nil {
		t.Error("a bad sample value folded without an error")
	}
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	start := time.Now()
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	layerNs, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range layerNs {
		total += ns
	}
	// The spin loop is in this package, which is not a repository layer.
	if total < int64(100*time.Millisecond) || total > int64(2*time.Since(start)) || layerNs["runtime"] != total {
		t.Errorf("500ms of spinning folded as %v", layerNs)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "cell", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 2, Name: "exec", Start: 15 * ms, End: 45 * ms},
		{ID: 4, Parent: 1, Name: "cell", Start: 40 * ms, End: 70 * ms}, // overlaps span 2
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"pass": 40 * ms, "cell": 40 * ms, "exec": 30 * ms} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
}
