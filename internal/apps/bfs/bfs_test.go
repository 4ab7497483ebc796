package bfs

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
)

func runBFS(t *testing.T, version, plat string, np int, scale float64) *instance {
	t.Helper()
	as := mem.NewAddressSpace(platform.PageSize, np)
	inst, err := app{}.Build(version, scale, as, np)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := platform.Make(plat, as, np)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager})
	k.Run("bfs/"+version+"@"+plat, inst.Body)
	if err := inst.Verify(); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	return inst.(*instance)
}

func TestAllVersionsRunAndVerify(t *testing.T) {
	for _, v := range []string{"orig", "pad", "part", "dir"} {
		t.Run(v, func(t *testing.T) { runBFS(t, v, "svm", 4, 0.25) })
	}
}

func TestAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.PaperNames() {
		t.Run(pl, func(t *testing.T) { runBFS(t, "dir", pl, 4, 0.25) })
	}
}

func TestUniprocessor(t *testing.T) {
	runBFS(t, "orig", "svm", 1, 0.25)
}

// The distance array is a pure function of the graph: fingerprints must
// agree across versions, platforms, and processor counts.
func TestFingerprintInvariant(t *testing.T) {
	var want uint64
	first := ""
	check := func(name string, in *instance) {
		fp := in.Fingerprint()
		if first == "" {
			want, first = fp, name
			return
		}
		if fp != want {
			t.Errorf("%s fingerprint %#x != %s fingerprint %#x", name, fp, first, want)
		}
	}
	for _, v := range []string{"orig", "pad", "part", "dir"} {
		check(v+"@svm p=3", runBFS(t, v, "svm", 3, 0.25))
	}
	check("dir@smp p=8", runBFS(t, "dir", "smp", 8, 0.25))
	check("orig@dsm p=1", runBFS(t, "orig", "dsm", 1, 0.25))
}

// Property: on randomized graphs, every version's parallel distances must
// equal a plain sequential BFS — including at processor counts that do not
// divide the vertex count.
func TestRandomGraphsMatchSerialBFS(t *testing.T) {
	for _, seed := range []uint64{2, 99, 123456} {
		for _, ver := range []version{vOrig, vPad, vPart, vDir} {
			np := 5
			as := mem.NewAddressSpace(platform.PageSize, np)
			in := newInstance(ver, 300+int(seed%7)*31, seed, as, np)
			want := SerialBFS(in.row, in.adj)
			pl, _ := platform.Make("svm", as, np)
			sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager}).Run("bfs", in.Body)
			for v := range want {
				if in.dist[v] != want[v] {
					t.Fatalf("seed %d version %d: dist[%d] = %d, want %d", seed, ver, v, in.dist[v], want[v])
				}
			}
		}
	}
}

// The ring guarantees connectivity: a serial traversal must reach every
// vertex, so -1 distances can only ever mean a broken parallel claim.
func TestGraphIsConnected(t *testing.T) {
	row, adj := generateGraph(512, 7)
	for v, d := range SerialBFS(row, adj) {
		if d < 0 {
			t.Fatalf("vertex %d unreachable", v)
		}
	}
}

// The dir version must actually exercise both directions on the default
// graph — otherwise it degenerates to part and the Alg label is a lie.
func TestDirectionOptimizingSwitches(t *testing.T) {
	np := 4
	as := mem.NewAddressSpace(platform.PageSize, np)
	in := newInstance(vDir, 1024, 4242, as, np)
	levels := map[int32]int{}
	for _, d := range SerialBFS(in.row, in.adj) {
		levels[d]++
	}
	sawSmall, sawBig := false, false
	for _, n := range levels {
		if n <= in.numVerts/bottomUpDivisor {
			sawSmall = true
		} else {
			sawBig = true
		}
	}
	if !sawSmall || !sawBig {
		t.Fatalf("frontier sizes %v never cross the bottom-up threshold %d", levels, in.numVerts/bottomUpDivisor)
	}
}
