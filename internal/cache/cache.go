// Package cache models a two-level per-processor cache hierarchy with real
// tag arrays, used by every platform preset for local stall accounting and
// (on the line-coherent platforms and the SMP nodes of svmsmp) for MESI line
// states. The paper's configurations: SVM nodes have an 8 KB direct-mapped
// write-through L1 and a 512 KB 2-way L2 with 32 B lines; the DSM nodes a
// 16 KB L1 and a 1 MB 4-way L2 with 64 B lines; the SGI Challenge a 16 KB L1
// and 1 MB L2 with 128 B lines.
//
// Tag-array layout: each level keeps its ways in ONE contiguous, set-major
// slice of 16-byte way records (tag, LRU stamp, MESI state together). Every
// simulated memory reference of every application flows through lookup, so
// this layout is the simulator's hottest data structure: the earlier
// slices-per-set representation (three separately allocated slices per set)
// cost three dependent pointer loads into scattered 2-4 element arrays per
// probe and dominated the CPU profile of `figures -all`. The flat layout is
// one predictable indexed load per way, and building a hierarchy is two
// allocations instead of tens of thousands. The replacement decisions (way
// scan order, LRU victim choice) are bit-for-bit those of the old layout, so
// simulated timing is unchanged.
//
// Residency bitmap: each hierarchy also keeps one bit per line address,
// set while L2 holds the line (inclusion puts every L1 line in L2 as well).
// Page-grained protocols invalidate a whole 4 KB page whenever its
// contents change under a node — on SVM that is every page fetch and every
// applied diff — and most of a page's 64-128 lines are usually not cached.
// Probing every line of the page through both levels made page invalidation
// the largest single cost of SVM runs at high processor counts; with the
// bitmap, InvalidateRange visits only the lines actually resident. The bitmap
// grows lazily to cover the highest line ever filled and is cleared, not
// freed, by Flush and Reset. CheckInvariants audits it against the L2 tags.
package cache

import (
	"fmt"
	"math/bits"
)

// MESI line states. Platforms that do not track coherence in the cache (the
// SVM platform, which is coherent at page granularity) use only Invalid and
// Exclusive.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Config describes a two-level hierarchy. Sizes in bytes; all powers of two.
type Config struct {
	L1Size  int
	L1Assoc int
	L2Size  int
	L2Assoc int
	Line    int // line size shared by both levels
}

// Level is the level at which an access was satisfied.
type Level int

const (
	L1Hit Level = iota
	L2Hit
	Miss // must go to memory / coherence protocol
)

// way is one tag-array entry. The three fields of a way live in one 16-byte
// record so a lookup touches a single cache line of the HOST machine for the
// whole set (at the simulated associativities of 1-4).
type way struct {
	tag   uint64 // line address (addr / line); only meaningful when st != Invalid
	lru   uint32
	st    State
	_pad1 uint8
	_pad2 uint16
}

// level is one cache level: nSets*assoc ways, set-major — set si occupies
// ways[si*assoc : (si+1)*assoc].
type level struct {
	ways    []way
	setMask uint64
	assoc   int
}

func newLevel(size, assoc, line int) *level {
	nLines := size / line
	nSets := nLines / assoc
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", nSets))
	}
	return &level{
		ways:    make([]way, nSets*assoc),
		assoc:   assoc,
		setMask: uint64(nSets - 1),
	}
}

// lookup returns the base index of lineAddr's set and the way index holding
// it (wi == -1 when absent). Ways are scanned in ascending order, as the
// previous layout did; the scan order is part of run determinism because it
// decides LRU ties.
func (l *level) lookup(lineAddr uint64) (base, wi int, ok bool) {
	base = int(lineAddr&l.setMask) * l.assoc
	ws := l.ways[base : base+l.assoc]
	for w := range ws {
		if ws[w].st != Invalid && ws[w].tag == lineAddr {
			return base, w, true
		}
	}
	return base, -1, false
}

// insert places lineAddr in its set with the given state, evicting LRU if
// needed. Returns the evicted line address and its state; evState is Invalid
// when nothing was evicted. Victim selection (first invalid way, else lowest
// LRU stamp, ties to the lowest way index) matches the previous layout
// exactly.
func (l *level) insert(lineAddr uint64, st State, clock uint32) (evicted uint64, evState State) {
	base := int(lineAddr&l.setMask) * l.assoc
	ws := l.ways[base : base+l.assoc]
	victim := 0
	best := ^uint32(0)
	for w := range ws {
		if ws[w].st == Invalid {
			victim = w
			break
		}
		if ws[w].lru < best {
			best = ws[w].lru
			victim = w
		}
	}
	v := &ws[victim]
	if v.st != Invalid {
		evicted, evState = v.tag, v.st
	}
	v.tag = lineAddr
	v.st = st
	v.lru = clock
	return evicted, evState
}

// Hierarchy is one processor's L1+L2.
type Hierarchy struct {
	cfg       Config
	l1, l2    *level
	lineShift uint
	clock     uint32
	// fast12 selects the unrolled Access path for the direct-mapped-L1,
	// 2-way-L2 shape (the SVM node hierarchy, the hottest in figure runs).
	// w1arr/w2arr/m1/m2 mirror the levels' fields so that path loads them
	// without chasing the level pointers; the backing arrays are allocated
	// once in New and never reallocated, so the aliases stay valid.
	fast12       bool
	w1arr, w2arr []way
	m1, m2       uint64

	// resident has bit la set exactly while L2 holds line la; see the
	// package comment. Words past the end are all-zero lines.
	resident []uint64

	// OnL2Evict, when set, is called with the line address and state of
	// every line evicted from L2 by capacity/conflict replacement. The
	// hardware-coherent platforms use it to keep directory/bus sharer
	// state consistent with the caches.
	OnL2Evict func(lineAddr uint64, st State)

	// Stats
	Accesses, L1Misses, L2Misses uint64
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	if cfg.Line == 0 || cfg.Line&(cfg.Line-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	h := &Hierarchy{cfg: cfg}
	h.l1 = newLevel(cfg.L1Size, cfg.L1Assoc, cfg.Line)
	h.l2 = newLevel(cfg.L2Size, cfg.L2Assoc, cfg.Line)
	h.fast12 = cfg.L1Assoc == 1 && cfg.L2Assoc == 2
	h.w1arr, h.m1 = h.l1.ways, h.l1.setMask
	h.w2arr, h.m2 = h.l2.ways, h.l2.setMask
	for sh := uint(0); ; sh++ {
		if 1<<sh == cfg.Line {
			h.lineShift = sh
			break
		}
	}
	return h
}

// Line returns the configured line size.
func (h *Hierarchy) Line() int { return h.cfg.Line }

// LineOf returns the line address (addr / line size).
func (h *Hierarchy) LineOf(addr uint64) uint64 { return addr >> h.lineShift }

// Probe reports the level at which the line containing addr currently
// resides and its L2 state, without modifying the cache.
func (h *Hierarchy) Probe(addr uint64) (Level, State) {
	la := addr >> h.lineShift
	if _, _, ok := h.l1.lookup(la); ok {
		if b2, w2, ok2 := h.l2.lookup(la); ok2 {
			return L1Hit, h.l2.ways[b2+w2].st
		}
		return L1Hit, Exclusive
	}
	if b2, w2, ok := h.l2.lookup(la); ok {
		return L2Hit, h.l2.ways[b2+w2].st
	}
	return Miss, Invalid
}

// scan walks lineAddr's set once, returning the set's way slice, the way
// holding lineAddr (hit == -1 when absent) and, for the miss case, the
// insertion victim chosen exactly as insert does: first invalid way, else
// lowest LRU stamp, ties to the lowest way index. The scan stops at a hit,
// like lookup, so LRU observation order is unchanged; victim is only
// meaningful when hit == -1 (the full set was scanned).
func (l *level) scan(lineAddr uint64) (ws []way, hit, victim int) {
	base := int(lineAddr&l.setMask) * l.assoc
	ws = l.ways[base : base+l.assoc]
	victim = -1
	haveInvalid := false
	best := ^uint32(0)
	for w := range ws {
		if ws[w].st == Invalid {
			if !haveInvalid {
				// First invalid way wins outright, as insert's break does.
				haveInvalid = true
				victim = w
			}
			continue
		}
		if ws[w].tag == lineAddr {
			return ws, w, -1
		}
		if !haveInvalid && ws[w].lru < best {
			best = ws[w].lru
			victim = w
		}
	}
	if victim < 0 {
		victim = 0 // all valid at the maximum stamp: insert's default
	}
	return ws, -1, victim
}

// Access performs a load or store of the line containing addr, updating tag
// and LRU state. fillState is the state a missing line would be installed in
// (used on the hardware platforms; pass Exclusive for SVM). It returns the
// level that satisfied the access and the line's resulting L2 state.
//
// Every simulated memory reference of every application funnels through
// here, so the miss path is fused: each level's hit probe and victim choice
// share one tag-array walk instead of lookup-then-insert walking the set
// twice. The decisions (scan order, first-invalid-else-LRU victim, tie to
// the lowest way) are bit-for-bit those of the unfused path, so simulated
// timing is unchanged.
//
// Coherence upgrades (write to a Shared line) are NOT handled here: the
// caller must Probe first and drive the protocol; Access then applies the
// final state via SetState or by re-filling.
func (h *Hierarchy) Access(addr uint64, write bool, fillState State) (Level, State) {
	if h.fast12 {
		return h.access12(addr, write, fillState)
	}
	return h.accessGeneric(addr, write, fillState)
}

// access12 is Access unrolled for a direct-mapped L1 over a 2-way L2 — the
// SVM node hierarchy, which every simulated SVM reference walks. Probe,
// victim choice and back-invalidation are the literal expansions of the
// generic path at assoc 1 and 2, so the two produce identical state.
func (h *Hierarchy) access12(addr uint64, write bool, fillState State) (Level, State) {
	h.clock++
	h.Accesses++
	la := addr >> h.lineShift
	w1 := &h.w1arr[la&h.m1]
	s2 := h.w2arr[int(la&h.m2)*2:]
	wa := &s2[0]
	wb := &s2[1]
	if w1.st != Invalid && w1.tag == la {
		// L1 hit; L1 is write-through, so line state lives in L2.
		w1.lru = h.clock
		if wa.st != Invalid && wa.tag == la {
			wa.lru = h.clock
			if write && wa.st == Exclusive {
				wa.st = Modified
			}
			return L1Hit, wa.st
		}
		if wb.st != Invalid && wb.tag == la {
			wb.lru = h.clock
			if write && wb.st == Exclusive {
				wb.st = Modified
			}
			return L1Hit, wb.st
		}
		return L1Hit, Exclusive
	}
	h.L1Misses++
	hit := (*way)(nil)
	if wa.st != Invalid && wa.tag == la {
		hit = wa
	} else if wb.st != Invalid && wb.tag == la {
		hit = wb
	}
	if hit != nil {
		hit.lru = h.clock
		if write && hit.st == Exclusive {
			hit.st = Modified
		}
		st := hit.st
		*w1 = way{tag: la, lru: h.clock, st: st}
		return L2Hit, st
	}
	h.L2Misses++
	st := fillState
	if write {
		if st == Exclusive || st == Shared {
			st = Modified
		}
	}
	// Victim: first invalid way, else lower LRU stamp, ties to way 0.
	v := wa
	if wa.st != Invalid && (wb.st == Invalid || wb.lru < wa.lru) {
		v = wb
	}
	ev, evSt := v.tag, v.st
	*v = way{tag: la, lru: h.clock, st: st}
	h.markResident(la)
	if evSt != Invalid {
		h.resident[ev>>6] &^= 1 << (ev & 63)
		// Inclusion: a line leaving L2 must also leave L1.
		we := &h.w1arr[ev&h.m1]
		if we.st != Invalid && we.tag == ev {
			we.st = Invalid
		}
		if h.OnL2Evict != nil {
			h.OnL2Evict(ev, evSt)
		}
	}
	// Direct-mapped L1: la's slot is the victim no matter what the eviction
	// callback touched.
	*w1 = way{tag: la, lru: h.clock, st: st}
	return Miss, st
}

func (h *Hierarchy) accessGeneric(addr uint64, write bool, fillState State) (Level, State) {
	h.clock++
	h.Accesses++
	la := addr >> h.lineShift
	w1s, hit1, vic1 := h.l1.scan(la)
	if hit1 >= 0 {
		w1s[hit1].lru = h.clock
		// L1 is write-through: line state lives in L2.
		if b2, w2, ok2 := h.l2.lookup(la); ok2 {
			w := &h.l2.ways[b2+w2]
			w.lru = h.clock
			if write && w.st == Exclusive {
				w.st = Modified
			}
			return L1Hit, w.st
		}
		return L1Hit, Exclusive
	}
	h.L1Misses++
	w2s, hit2, vic2 := h.l2.scan(la)
	if hit2 >= 0 {
		w := &w2s[hit2]
		w.lru = h.clock
		if write && w.st == Exclusive {
			w.st = Modified
		}
		st := w.st
		w1s[vic1] = way{tag: la, lru: h.clock, st: st}
		return L2Hit, st
	}
	h.L2Misses++
	st := fillState
	if write {
		if st == Exclusive || st == Shared {
			st = Modified
		}
	}
	v := &w2s[vic2]
	ev, evSt := v.tag, v.st
	*v = way{tag: la, lru: h.clock, st: st}
	h.markResident(la)
	if evSt != Invalid {
		h.resident[ev>>6] &^= 1 << (ev & 63)
		// Inclusion: a line leaving L2 must also leave L1. This can free a
		// way in la's own L1 set, so the L1 victim must be re-chosen below
		// rather than taken from the pre-eviction scan.
		if b1, w1, ok := h.l1.lookup(ev); ok {
			h.l1.ways[b1+w1].st = Invalid
		}
		if h.OnL2Evict != nil {
			h.OnL2Evict(ev, evSt)
		}
	}
	h.l1.insert(la, st, h.clock)
	return Miss, st
}

// HitAccess is Probe followed by Access, fused into one tag-array walk, for
// the platforms' FastAccess hot path: it performs the access ONLY if the
// line hits and (for writes) the MESI state grants write permission
// (Modified or Exclusive). On a miss or an insufficient state it mutates
// nothing — not even the LRU clock — exactly as the unfused Probe-then-
// return-false path did, so SlowAccess still performs the one and only
// Access of the reference. The mutations of the hit path (clock, counters,
// LRU stamps, the silent Exclusive->Modified write upgrade) are identical to
// Access's, so fused and unfused runs are cycle-identical.
func (h *Hierarchy) HitAccess(addr uint64, write bool) (Level, State, bool) {
	la := addr >> h.lineShift
	if b1, w1, ok := h.l1.lookup(la); ok {
		// L1 hit; authoritative state lives in L2 (write-through L1).
		b2, w2, ok2 := h.l2.lookup(la)
		st := Exclusive
		if ok2 {
			st = h.l2.ways[b2+w2].st
		}
		if write && st != Modified && st != Exclusive {
			return L1Hit, st, false
		}
		h.clock++
		h.Accesses++
		h.l1.ways[b1+w1].lru = h.clock
		if ok2 {
			w := &h.l2.ways[b2+w2]
			w.lru = h.clock
			if write && w.st == Exclusive {
				w.st = Modified
			}
			return L1Hit, w.st, true
		}
		return L1Hit, Exclusive, true
	}
	b2, w2, ok := h.l2.lookup(la)
	if !ok {
		return Miss, Invalid, false
	}
	st := h.l2.ways[b2+w2].st
	if write && st != Modified && st != Exclusive {
		return L2Hit, st, false
	}
	h.clock++
	h.Accesses++
	h.L1Misses++
	w := &h.l2.ways[b2+w2]
	w.lru = h.clock
	if write && w.st == Exclusive {
		w.st = Modified
	}
	st = w.st
	h.l1.insert(la, st, h.clock)
	return L2Hit, st, true
}

// SetState forces the L2 (and implicitly L1) state of the line containing
// addr; used by the coherence protocols for upgrades and downgrades. A
// transition to Invalid removes the line from both levels.
func (h *Hierarchy) SetState(addr uint64, st State) {
	la := addr >> h.lineShift
	if st == Invalid {
		h.invalidateLine(la)
		return
	}
	if b2, w2, ok := h.l2.lookup(la); ok {
		h.l2.ways[b2+w2].st = st
	}
}

// invalidateLine removes line la from both levels and the residency bitmap.
func (h *Hierarchy) invalidateLine(la uint64) {
	if b2, w2, ok := h.l2.lookup(la); ok {
		h.l2.ways[b2+w2].st = Invalid
		h.resident[la>>6] &^= 1 << (la & 63)
	}
	if b1, w1, ok := h.l1.lookup(la); ok {
		h.l1.ways[b1+w1].st = Invalid
	}
}

// markResident sets line la's residency bit, growing the bitmap to cover it.
func (h *Hierarchy) markResident(la uint64) {
	w := la >> 6
	if w >= uint64(len(h.resident)) {
		h.growResident(int(w) + 1)
	}
	h.resident[w] |= 1 << (la & 63)
}

// growResident extends the bitmap to at least n words, at least doubling it
// so a run that fills ascending addresses grows it O(log n) times.
func (h *Hierarchy) growResident(n int) {
	n = max(n, 2*len(h.resident))
	h.resident = append(h.resident, make([]uint64, n-len(h.resident))...)
}

// Contains reports whether the line containing addr is present (any level).
func (h *Hierarchy) Contains(addr uint64) bool {
	lvl, _ := h.Probe(addr)
	return lvl != Miss
}

// InvalidateRange removes all lines overlapping [addr, addr+n) — used when a
// page is invalidated under the SVM protocol, so stale data cannot be read
// from the cache after a page fetch replaces the page. Only lines whose
// residency bit is set are visited, so the cost is proportional to what the
// range has cached, not to its length.
func (h *Hierarchy) InvalidateRange(addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := addr >> h.lineShift
	last := (addr + uint64(n) - 1) >> h.lineShift
	nw := uint64(len(h.resident))
	for wi := first >> 6; wi <= last>>6 && wi < nw; wi++ {
		word := h.resident[wi]
		if wi == first>>6 {
			word &= ^uint64(0) << (first & 63)
		}
		if wi == last>>6 {
			word &= ^uint64(0) >> (63 - last&63)
		}
		for word != 0 {
			h.invalidateLine(wi<<6 | uint64(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// LinesL2 calls f for every valid line resident in L2, in set/way order
// (deterministic). Platform invariant checkers use it to cross-check cache
// contents against directory or bus sharer state.
func (h *Hierarchy) LinesL2(f func(lineAddr uint64, st State)) {
	for i := range h.l2.ways {
		if w := &h.l2.ways[i]; w.st != Invalid {
			f(w.tag, w.st)
		}
	}
}

// CheckInvariants audits the hierarchy's own bookkeeping:
//
//   - multilevel inclusion: every valid L1 line is also present in L2.
//     Access maintains this by back-invalidating L1 on L2 eviction; a
//     violation means a protocol path mutated one level without the other;
//   - the residency bitmap agrees with the L2 tags in both directions: every
//     valid L2 line has its bit set (or InvalidateRange would skip a stale
//     line), and every set bit names a line L2 holds.
func (h *Hierarchy) CheckInvariants() error {
	for i := range h.l1.ways {
		w := &h.l1.ways[i]
		if w.st == Invalid {
			continue
		}
		if _, _, ok := h.l2.lookup(w.tag); !ok {
			return fmt.Errorf("cache: L1 line %#x (state %s) not present in L2 (inclusion violated)",
				w.tag, w.st)
		}
	}
	for i := range h.l2.ways {
		w := &h.l2.ways[i]
		if w.st == Invalid {
			continue
		}
		if wi := w.tag >> 6; wi >= uint64(len(h.resident)) || h.resident[wi]&(1<<(w.tag&63)) == 0 {
			return fmt.Errorf("cache: L2 line %#x (state %s) missing from the residency bitmap", w.tag, w.st)
		}
	}
	for wi, word := range h.resident {
		for word != 0 {
			la := uint64(wi)<<6 | uint64(bits.TrailingZeros64(word))
			if _, _, ok := h.l2.lookup(la); !ok {
				return fmt.Errorf("cache: residency bitmap marks line %#x, which L2 does not hold", la)
			}
			word &= word - 1
		}
	}
	return nil
}

// Flush empties both levels (used between simulated runs).
func (h *Hierarchy) Flush() {
	for _, l := range []*level{h.l1, h.l2} {
		for i := range l.ways {
			l.ways[i].st = Invalid
		}
	}
	clear(h.resident)
}

// Reset returns the hierarchy to its exact post-New state — cold tag arrays,
// zero LRU clock, zero counters — without reallocating the way records, so a
// platform reattaching between runs allocates nothing.
func (h *Hierarchy) Reset() {
	clear(h.l1.ways)
	clear(h.l2.ways)
	clear(h.resident)
	h.clock = 0
	h.Accesses = 0
	h.L1Misses = 0
	h.L2Misses = 0
}
