package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{L1Size: 1 << 10, L1Assoc: 1, L2Size: 8 << 10, L2Assoc: 2, Line: 32}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(testConfig())
	lvl, _ := h.Access(0x1000, false, Exclusive)
	if lvl != Miss {
		t.Errorf("first access = %v, want Miss", lvl)
	}
	lvl, _ = h.Access(0x1000, false, Exclusive)
	if lvl != L1Hit {
		t.Errorf("second access = %v, want L1Hit", lvl)
	}
	// Same line, different word.
	lvl, _ = h.Access(0x1010, false, Exclusive)
	if lvl != L1Hit {
		t.Errorf("same-line access = %v, want L1Hit", lvl)
	}
}

func TestL1ConflictL2Hit(t *testing.T) {
	h := New(testConfig())
	// L1 is 1 KB direct-mapped with 32 B lines = 32 sets; addresses 1 KB
	// apart conflict in L1 but 8 KB L2 (2-way, 128 sets) holds both.
	h.Access(0x0000, false, Exclusive)
	h.Access(0x0400, false, Exclusive) // evicts 0x0000 from L1
	lvl, _ := h.Access(0x0000, false, Exclusive)
	if lvl != L2Hit {
		t.Errorf("conflicting access = %v, want L2Hit", lvl)
	}
}

func TestWriteSetsModified(t *testing.T) {
	h := New(testConfig())
	h.Access(0x2000, true, Exclusive)
	_, st := h.Probe(0x2000)
	if st != Modified {
		t.Errorf("state after write = %v, want M", st)
	}
}

func TestEToMOnWriteHit(t *testing.T) {
	h := New(testConfig())
	h.Access(0x2000, false, Exclusive)
	_, st := h.Access(0x2000, true, Exclusive)
	if st != Modified {
		t.Errorf("state after write hit on E = %v, want M", st)
	}
}

func TestSetStateInvalidRemovesLine(t *testing.T) {
	h := New(testConfig())
	h.Access(0x3000, false, Shared)
	h.SetState(0x3000, Invalid)
	if h.Contains(0x3000) {
		t.Error("line still present after invalidation")
	}
	lvl, _ := h.Access(0x3000, false, Shared)
	if lvl != Miss {
		t.Errorf("access after invalidation = %v, want Miss", lvl)
	}
}

func TestInvalidateRange(t *testing.T) {
	h := New(testConfig())
	for a := uint64(0x4000); a < 0x4000+4096; a += 32 {
		h.Access(a, false, Exclusive)
	}
	h.InvalidateRange(0x4000, 4096)
	for a := uint64(0x4000); a < 0x4000+4096; a += 32 {
		if h.Contains(a) {
			t.Fatalf("line %#x survived page invalidation", a)
		}
	}
}

func TestEvictionCallbackAndInclusion(t *testing.T) {
	h := New(testConfig())
	var evicted []uint64
	h.OnL2Evict = func(la uint64, st State) { evicted = append(evicted, la) }
	// Fill one L2 set (2 ways) with conflicting lines, then add a third.
	// L2: 8 KB / 32 B / 2-way = 128 sets, so addresses 128*32 = 4 KB
	// apart map to the same set.
	h.Access(0x0000, false, Exclusive)
	h.Access(0x1000, false, Exclusive)
	h.Access(0x2000, false, Exclusive)
	if len(evicted) != 1 {
		t.Fatalf("evictions = %d, want 1", len(evicted))
	}
	if evicted[0] != 0 {
		t.Errorf("evicted line %#x, want line 0 (LRU)", evicted[0])
	}
	// Inclusion: the evicted line must be gone from L1 too.
	if h.Contains(0x0000) {
		t.Error("evicted L2 line still visible (L1 inclusion violated)")
	}
}

func TestDirectMappedConflictThrashing(t *testing.T) {
	// The superlinear-speedup story in the paper depends on 2-d layouts
	// thrashing direct-mapped caches: alternating accesses at a stride of
	// the whole cache size always miss.
	cfg := Config{L1Size: 1 << 10, L1Assoc: 1, L2Size: 2 << 10, L2Assoc: 1, Line: 32}
	h := New(cfg)
	h.Access(0x0000, false, Exclusive)
	h.Access(0x0800, false, Exclusive) // conflicts in both levels
	for i := 0; i < 10; i++ {
		lvl, _ := h.Access(uint64(0x0000+(i%2)*0x0800), false, Exclusive)
		if i >= 2 && lvl != Miss {
			t.Fatalf("iteration %d: level %v, want Miss (thrash)", i, lvl)
		}
	}
}

func TestFlush(t *testing.T) {
	h := New(testConfig())
	h.Access(0x5000, true, Exclusive)
	h.Flush()
	if h.Contains(0x5000) {
		t.Error("line survived Flush")
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	h := New(testConfig())
	h.Access(0x6000, false, Shared)
	before := h.Accesses
	h.Probe(0x6000)
	h.Probe(0x9999999)
	if h.Accesses != before {
		t.Error("Probe counted as access")
	}
}

func TestAccessLevelNeverWorsensImmediately(t *testing.T) {
	// Property: accessing an address twice in a row, the second access
	// hits L1.
	h := New(testConfig())
	f := func(a uint32) bool {
		addr := uint64(a) + 1 // avoid line-address 0 sentinel
		h.Access(addr, false, Exclusive)
		lvl, _ := h.Access(addr, false, Exclusive)
		return lvl == L1Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMissCounters(t *testing.T) {
	h := New(testConfig())
	h.Access(0x1000, false, Exclusive)
	h.Access(0x1000, false, Exclusive)
	if h.Accesses != 2 || h.L2Misses != 1 || h.L1Misses != 1 {
		t.Errorf("counters = %d/%d/%d, want 2/1/1", h.Accesses, h.L1Misses, h.L2Misses)
	}
}

func TestInvalidateRangeUnalignedBounds(t *testing.T) {
	h := New(testConfig())
	for a := uint64(0x4000); a < 0x4400; a += 32 {
		h.Access(a, false, Exclusive)
	}
	// [0x4010, 0x4050) overlaps lines 0x4000, 0x4020 and 0x4040 only.
	h.InvalidateRange(0x4010, 0x40)
	for a := uint64(0x4000); a < 0x4400; a += 32 {
		if want := a >= 0x4060; h.Contains(a) != want {
			t.Errorf("line %#x present = %v, want %v", a, !want, want)
		}
	}
	h.InvalidateRange(0x4060, 0) // empty range
	if !h.Contains(0x4060) {
		t.Error("empty range invalidated a line")
	}
	h.InvalidateRange(1<<40, 4096) // far beyond anything ever filled
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The residency bitmap is what lets InvalidateRange skip absent lines, so
// the audit must catch a disagreement with the L2 tags in either
// direction: a resident line whose bit is clear would survive page
// invalidation with stale data, and a stray bit would make invalidation
// chase lines that are not there.
func TestCheckInvariantsAuditsResidencyBitmap(t *testing.T) {
	h := New(testConfig())
	for a := uint64(0x1000); a < 0x2000; a += 32 {
		h.Access(a, a&64 != 0, Exclusive)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean hierarchy: %v", err)
	}
	la := h.LineOf(0x1040)
	bit := uint64(1) << (la & 63)

	h.resident[la>>6] &^= bit // resident line, bit lost
	if err := h.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "missing from the residency bitmap") {
		t.Errorf("cleared bit of resident line %#x: err = %v", la, err)
	}
	h.resident[la>>6] |= bit

	h.SetState(0x1040, Invalid)
	h.resident[la>>6] |= bit // absent line, bit set
	if err := h.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("stray bit for absent line %#x: err = %v", la, err)
	}
}

// Every path that moves a line out of L2 clears its bit: conflict eviction,
// SetState(Invalid), InvalidateRange, Flush and Reset.
func TestResidencyBitmapTracksL2(t *testing.T) {
	h := New(testConfig()) // 8 KB 2-way L2: lines 4 KB apart share a set
	h.Access(0x0000, false, Exclusive)
	h.Access(0x1000, false, Exclusive)
	h.Access(0x2000, false, Exclusive) // evicts 0x0000
	h.SetState(0x1000, Invalid)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, drop := range []func(){h.Flush, h.Reset} {
		h.Access(0x3000, true, Exclusive)
		drop()
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
