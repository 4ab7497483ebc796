package cache

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// refCache is a deliberately naive model of Hierarchy for differential
// testing: each level is a map from set index to the set's line addresses in
// LRU order (least recent first), L2 line states live in a map, and
// inclusion is enforced by explicitly removing a line from L1 whenever it
// leaves L2. It shares no code with the tag-array implementation.
type refCache struct {
	line             uint64
	l1, l2           refLevel
	st               map[uint64]State // L2 state of every L2-resident line
	evicted          []refEviction
	acc, l1m, l2miss uint64
}

type refLevel struct {
	sets  map[uint64][]uint64
	nSets uint64
	assoc int
}

type refEviction struct {
	la uint64
	st State
}

func newRefLevel(size, assoc, line int) refLevel {
	return refLevel{sets: map[uint64][]uint64{}, nSets: uint64(size / line / assoc), assoc: assoc}
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		line: uint64(cfg.Line),
		l1:   newRefLevel(cfg.L1Size, cfg.L1Assoc, cfg.Line),
		l2:   newRefLevel(cfg.L2Size, cfg.L2Assoc, cfg.Line),
		st:   map[uint64]State{},
	}
}

func (l *refLevel) has(la uint64) bool { return slices.Contains(l.sets[la%l.nSets], la) }

// touch moves la to the most-recently-used end of its set.
func (l *refLevel) touch(la uint64) {
	l.remove(la)
	s := la % l.nSets
	l.sets[s] = append(l.sets[s], la)
}

func (l *refLevel) remove(la uint64) {
	s := la % l.nSets
	if i := slices.Index(l.sets[s], la); i >= 0 {
		l.sets[s] = slices.Delete(l.sets[s], i, i+1)
	}
}

// insert adds la as most recently used, returning the least recently used
// line it displaced from a full set.
func (l *refLevel) insert(la uint64) (victim uint64, evicted bool) {
	s := la % l.nSets
	if len(l.sets[s]) == l.assoc {
		victim, evicted = l.sets[s][0], true
		l.sets[s] = l.sets[s][1:]
	}
	l.sets[s] = append(l.sets[s], la)
	return victim, evicted
}

func (r *refCache) probe(addr uint64) (Level, State) {
	la := addr / r.line
	switch {
	case r.l1.has(la):
		return L1Hit, r.st[la]
	case r.l2.has(la):
		return L2Hit, r.st[la]
	}
	return Miss, Invalid
}

func upgraded(st State, write bool) State {
	if write && st == Exclusive {
		return Modified
	}
	return st
}

func (r *refCache) access(addr uint64, write bool, fill State) (Level, State) {
	la := addr / r.line
	r.acc++
	if r.l1.has(la) {
		r.l1.touch(la)
		r.l2.touch(la)
		r.st[la] = upgraded(r.st[la], write)
		return L1Hit, r.st[la]
	}
	r.l1m++
	if r.l2.has(la) {
		r.l2.touch(la)
		r.st[la] = upgraded(r.st[la], write)
		r.l1.insert(la)
		return L2Hit, r.st[la]
	}
	r.l2miss++
	st := fill
	if write && (st == Exclusive || st == Shared) {
		st = Modified
	}
	if ev, ok := r.l2.insert(la); ok {
		r.l1.remove(ev)
		r.evicted = append(r.evicted, refEviction{ev, r.st[ev]})
		delete(r.st, ev)
	}
	r.st[la] = st
	r.l1.insert(la)
	return Miss, st
}

func (r *refCache) hitAccess(addr uint64, write bool) (Level, State, bool) {
	lvl, st := r.probe(addr)
	if lvl == Miss {
		return Miss, Invalid, false
	}
	if write && st != Modified && st != Exclusive {
		return lvl, st, false
	}
	lvl, st = r.access(addr, write, Invalid)
	return lvl, st, true
}

func (r *refCache) setState(addr uint64, st State) {
	la := addr / r.line
	if !r.l2.has(la) {
		return
	}
	if st == Invalid {
		r.l2.remove(la)
		r.l1.remove(la)
		delete(r.st, la)
		return
	}
	r.st[la] = st
}

func (r *refCache) invalidateRange(addr uint64, n int) {
	if n <= 0 {
		return
	}
	for la := addr / r.line; la <= (addr+uint64(n)-1)/r.line; la++ {
		r.setState(la*r.line, Invalid)
	}
}

func (r *refCache) flush() {
	r.l1.sets, r.l2.sets, r.st = map[uint64][]uint64{}, map[uint64][]uint64{}, map[uint64]State{}
}

func (r *refCache) reset() {
	r.flush()
	r.acc, r.l1m, r.l2miss = 0, 0, 0
}

// refShapes are the cache shapes of the platform presets — svm's
// direct-mapped L1 over a 2-way L2 (the unrolled access12 path), smp's
// direct-mapped pair and dsm's 4-way L2 (the generic path) — at their real
// line sizes but with few sets, so short fuzz inputs conflict and evict.
var refShapes = []Config{
	{L1Size: 256, L1Assoc: 1, L2Size: 1 << 10, L2Assoc: 2, Line: 32},       // svm
	{L1Size: 512, L1Assoc: 1, L2Size: 2 << 10, L2Assoc: 1, Line: 128},      // smp
	{L1Size: 512, L1Assoc: 1, L2Size: 2 << 10, L2Assoc: 4, Line: 64},       // dsm
	{L1Size: 512, L1Assoc: 2, L2Size: 2 << 10, L2Assoc: 4, Line: 64},       // set-associative L1
	{L1Size: 8 << 10, L1Assoc: 1, L2Size: 512 << 10, L2Assoc: 2, Line: 32}, // svm, full size
}

// runReference replays ops against a Hierarchy and the reference model and
// returns the first divergence. Each op is 4 bytes: an opcode byte, a
// two-byte address in units of 8 bytes (a 512 KB window), and an argument
// byte selecting the write flag, the state or the range length.
func runReference(shape int, ops []byte) error {
	cfg := refShapes[shape%len(refShapes)]
	h := New(cfg)
	ref := newRefCache(cfg)
	var evicted []refEviction
	h.OnL2Evict = func(la uint64, st State) { evicted = append(evicted, refEviction{la, st}) }
	touched := map[uint64]bool{}
	for i := 0; i+4 <= len(ops); i += 4 {
		op, arg := ops[i], ops[i+3]
		addr := uint64(binary.LittleEndian.Uint16(ops[i+1:])) * 8
		touched[addr/uint64(cfg.Line)] = true
		write, st := arg&1 != 0, State(arg>>1&3)
		var desc string
		switch op % 8 {
		case 0, 1, 2: // Access dominates, as in a simulation
			fill := Shared + State(arg>>1)%3 // a fill state is never Invalid
			desc = fmt.Sprintf("Access(%#x, %v, %s)", addr, write, fill)
			l1, s1 := h.Access(addr, write, fill)
			l2, s2 := ref.access(addr, write, fill)
			if l1 != l2 || s1 != s2 {
				return fmt.Errorf("op %d %s = (%v, %s), reference (%v, %s)", i/4, desc, l1, s1, l2, s2)
			}
		case 3:
			desc = fmt.Sprintf("HitAccess(%#x, %v)", addr, write)
			l1, s1, ok1 := h.HitAccess(addr, write)
			l2, s2, ok2 := ref.hitAccess(addr, write)
			if l1 != l2 || s1 != s2 || ok1 != ok2 {
				return fmt.Errorf("op %d %s = (%v, %s, %v), reference (%v, %s, %v)", i/4, desc, l1, s1, ok1, l2, s2, ok2)
			}
		case 4:
			desc = fmt.Sprintf("SetState(%#x, %s)", addr, st)
			h.SetState(addr, st)
			ref.setState(addr, st)
		case 5:
			n := int(arg) * 32 // up to 8 KB: a page or two, at any alignment
			desc = fmt.Sprintf("InvalidateRange(%#x, %d)", addr, n)
			h.InvalidateRange(addr, n)
			ref.invalidateRange(addr, n)
		case 6:
			desc = "Flush"
			if arg%8 != 0 { // keep flushes rare so caches fill up
				continue
			}
			h.Flush()
			ref.flush()
		case 7:
			desc = "Reset"
			if arg%8 != 0 {
				continue
			}
			h.Reset()
			ref.reset()
		}
		if !slices.Equal(evicted, ref.evicted) {
			return fmt.Errorf("op %d %s: evictions %v, reference %v", i/4, desc, evicted, ref.evicted)
		}
		if h.Accesses != ref.acc || h.L1Misses != ref.l1m || h.L2Misses != ref.l2miss {
			return fmt.Errorf("op %d %s: counters %d/%d/%d, reference %d/%d/%d", i/4, desc,
				h.Accesses, h.L1Misses, h.L2Misses, ref.acc, ref.l1m, ref.l2miss)
		}
		if err := h.CheckInvariants(); err != nil {
			return fmt.Errorf("op %d %s: %v", i/4, desc, err)
		}
		for la := range touched {
			l1, s1 := h.Probe(la * uint64(cfg.Line))
			l2, s2 := ref.probe(la * uint64(cfg.Line))
			if l1 != l2 || s1 != s2 {
				return fmt.Errorf("op %d %s: line %#x at (%v, %s), reference (%v, %s)", i/4, desc, la, l1, s1, l2, s2)
			}
		}
		n := 0
		var lerr error
		h.LinesL2(func(la uint64, st State) {
			n++
			if ref.st[la] != st && lerr == nil {
				lerr = fmt.Errorf("op %d %s: L2 holds line %#x in %s, reference %s", i/4, desc, la, st, ref.st[la])
			}
		})
		if lerr != nil {
			return lerr
		}
		if n != len(ref.st) {
			return fmt.Errorf("op %d %s: L2 holds %d lines, reference %d", i/4, desc, n, len(ref.st))
		}
	}
	return nil
}

// FuzzCacheVsReference diffs Hierarchy against the naive reference model
// over fuzzed operation sequences on every preset shape: access levels and
// states, eviction callbacks, counters, per-line probes, L2 contents, and
// the hierarchy's own inclusion and residency-bitmap audit after every op.
func FuzzCacheVsReference(f *testing.F) {
	f.Add(uint8(0), []byte{
		0, 0x00, 0x01, 0, // read line 0x800
		0, 0x00, 0x41, 0, // conflicting read
		0, 0x00, 0x81, 1, // third way: eviction
		5, 0x00, 0x01, 128, // invalidate a 4 KB page
		3, 0x00, 0x41, 1, // hit-access write
	})
	f.Add(uint8(1), []byte{0, 0x10, 0, 4, 4, 0x10, 0, 2, 3, 0x10, 0, 1, 6, 0, 0, 0, 0, 0x10, 0, 5})
	f.Add(uint8(2), []byte{0, 1, 1, 3, 0, 1, 2, 3, 0, 1, 3, 3, 0, 1, 4, 3, 0, 1, 5, 3, 7, 0, 0, 8, 0, 1, 1, 0})
	f.Add(uint8(4), []byte{0, 0, 0x80, 0, 0, 0, 0xc0, 0, 5, 0x10, 0x80, 255, 0, 0, 0x80, 1})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		if err := runReference(int(shape), ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCacheVsReferenceRandom runs long pseudo-random sequences through the
// differential on every shape, so the comparison covers deep eviction
// histories on every test run, not only under the fuzzer.
func TestCacheVsReferenceRandom(t *testing.T) {
	for shape := range refShapes {
		x := uint64(shape)*0x9e3779b97f4a7c15 + 1
		ops := make([]byte, 4*4000)
		for i := range ops {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ops[i] = byte(x)
		}
		// Confine addresses to 16 KB on the small shapes so sets conflict.
		if refShapes[shape].L2Size < 64<<10 {
			for i := 2; i < len(ops); i += 4 {
				ops[i] &= 0x07
			}
		}
		if err := runReference(shape, ops); err != nil {
			t.Errorf("shape %d: %v", shape, err)
		}
	}
}
