package protocol

import (
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// tinyCfg keeps wide engines cheap: 130 members of a 1 MB hierarchy would
// be most of a gigabyte of tag arrays.
var tinyCfg = cache.Config{L1Size: 1 << 10, L1Assoc: 1, L2Size: 4 << 10, L2Assoc: 2, Line: 64}

// Regression: the sharer set was one uint64, and 1<<m is 0 for m >= 64, so
// members 64 and up were never recorded and never invalidated. The set is
// now sized from the member count.
func TestLineEngineSharersBeyond64(t *testing.T) {
	e := NewLineEngine(MESI, tinyCfg, 130)
	const addr = 0x2040
	la := uint64(addr >> 6)
	le := e.Entry(la)
	for _, m := range []int{0, 63, 64, 129} {
		if le.Owner() >= 0 { // the first reader filled Exclusive
			e.DowngradeOwner(le, addr)
		}
		e.ReadFill(m, addr, le)
	}
	for _, m := range []int{0, 63, 64, 129} {
		if !le.Sharer(m) {
			t.Errorf("member %d not recorded as sharer", m)
		}
	}
	if err := e.CheckInvariants("wide"); err != nil {
		t.Fatal(err)
	}
	if n := e.InvalidateSharers(le, 1, addr); n != 4 {
		t.Errorf("invalidated %d copies, want 4", n)
	}
	e.WriteClaim(1, addr, le)
	for _, m := range []int{0, 63, 64, 129} {
		if e.HasLine(m, addr) || le.Sharer(m) {
			t.Errorf("member %d still holds the line after member 1's write", m)
		}
	}
	if le.Owner() != 1 || le.OtherSharers(1) {
		t.Errorf("after write claim: owner %d, other sharers %v; want sole owner 1", le.Owner(), le.OtherSharers(1))
	}
	if err := e.CheckInvariants("wide"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMembers(t *testing.T) {
	for _, np := range []int{1, 64, 65, 128, MaxMembers} {
		if err := CheckMembers(np); err != nil {
			t.Errorf("CheckMembers(%d) = %v", np, err)
		}
	}
	for _, np := range []int{0, -1, MaxMembers + 1} {
		var ce *sim.ConfigError
		if err := CheckMembers(np); !errors.As(err, &ce) || ce.Field != "NumProcs" {
			t.Errorf("CheckMembers(%d) = %v, want a NumProcs ConfigError", np, err)
		}
	}
}

// DropLines resets exactly the lines of the range, in place; neighbouring
// chunks and untouched chunks are left alone.
func TestDropLinesResetsRange(t *testing.T) {
	e := NewLineEngine(MESI, tinyCfg, 2)
	lines := []uint64{0x1000 >> 6, 0x1fc0 >> 6, 0x2000 >> 6, 0x0fc0 >> 6}
	for _, la := range lines {
		e.ReadFill(0, la<<6, e.Entry(la))
	}
	for _, h := range e.Caches {
		h.InvalidateRange(0x1000, 4096)
	}
	e.DropLines(0x1000, 4096)
	e.DropLines(0x40000, 4096) // a chunk never touched
	for _, la := range lines {
		le, ok := e.Lookup(la)
		inPage := la<<6 >= 0x1000 && la<<6 < 0x2000
		if !ok || le.Sharer(0) == inPage || (le.Owner() == 0) == inPage {
			t.Errorf("line %#x: ok=%v sharer=%v owner=%d (in dropped page: %v)", la, ok, le.Sharer(0), le.Owner(), inPage)
		}
	}
	if _, ok := e.Lookup(0x40000 >> 6); ok {
		t.Error("DropLines allocated an untouched chunk")
	}
	if err := e.CheckInvariants("drop"); err != nil {
		t.Fatal(err)
	}
}

// The line table walk of CheckInvariants must see entries the eviction
// callback left inconsistent, in ascending line order.
func TestLineCheckerReportsLowestBadLine(t *testing.T) {
	e := NewLineEngine(MESI, tinyCfg, 2)
	for _, la := range []uint64{0x300, 0x100, 0x200} {
		e.Entry(la).addSharer(1) // member 1 never cached these lines
	}
	err := e.CheckInvariants("order")
	if err == nil || err.Error() != "order: line 0x100 lists member 1 as sharer but its cache lost the line" {
		t.Errorf("err = %v", err)
	}
}

// A reattached machine resets its engine in place: caches, bitmap and line
// table chunks are reused, so a second identical run allocates nothing in
// the engine.
func TestLineEngineResetAllocFree(t *testing.T) {
	e := NewLineEngine(MESI, tinyCfg, 4)
	run := func() {
		for a := uint64(0); a < 64<<10; a += 64 {
			m := int(a>>6) & 3
			le := e.Entry(a >> 6)
			if a&128 != 0 {
				e.WriteClaim(m, a, le)
			} else {
				e.ReadFill(m, a, le)
			}
		}
		e.DropLines(8<<10, 4096)
	}
	run()
	if n := testing.AllocsPerRun(5, func() {
		e.Reset()
		run()
	}); n != 0 {
		t.Fatalf("reset-and-rerun allocates %v per run; want 0", n)
	}
	if err := e.CheckInvariants("reset"); err != nil {
		t.Fatal(err)
	}
}
