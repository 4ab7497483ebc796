package protocol

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/sim"
)

// MaxMembers is the largest coherence domain a LineEngine can model: the
// line table stores each line's exclusive owner in 16 bits.
const MaxMembers = math.MaxUint16

// chunkBytes is the address span of one line-table chunk: the 4 KB page of
// the page-grained layer above svmsmp's cluster engines, so dropping a page's
// lines resets exactly one chunk.
const chunkBytes = 4096

// CheckMembers reports whether np members fit one line engine, as a
// *sim.ConfigError when they do not. platform.Make calls it before building
// a hardware-coherent preset, so an oversized machine is refused up front
// instead of wrapping owner ids.
func CheckMembers(np int) error {
	if np < 1 || np > MaxMembers {
		return &sim.ConfigError{
			Field:  "NumProcs",
			Detail: fmt.Sprintf("%d processors in one line-coherence domain (want 1..%d)", np, MaxMembers),
		}
	}
	return nil
}

// LineEntry is the sharing state of one cache line within a coherence
// domain: the set of caching members and the exclusive owner (-1 when the
// line is memory-clean/shared). It is the full-map bookkeeping a directory
// holds in hardware and a snooping bus reconstructs from snoop results on
// every transaction. A LineEntry is a handle into its engine's line table;
// the sharer set has one bit per member, however many members there are.
type LineEntry struct {
	owner   *uint16  // owning member + 1; 0 when ownerless
	sharers []uint64 // bit q set when member q caches the line
}

// Owner returns the exclusive owner, or -1.
func (le LineEntry) Owner() int { return int(*le.owner) - 1 }

// Sharer reports whether member m is a recorded sharer.
func (le LineEntry) Sharer(m int) bool { return le.sharers[m>>6]&(1<<(m&63)) != 0 }

// OtherSharers reports whether any member other than m is a recorded sharer.
func (le LineEntry) OtherSharers(m int) bool {
	for i, w := range le.sharers {
		if i == m>>6 {
			w &^= 1 << (m & 63)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// empty reports an entry with neither sharers nor owner: the state of a line
// nobody has touched.
func (le LineEntry) empty() bool {
	if *le.owner != 0 {
		return false
	}
	for _, w := range le.sharers {
		if w != 0 {
			return false
		}
	}
	return true
}

func (le LineEntry) setOwner(m int)     { *le.owner = uint16(m + 1) }
func (le LineEntry) addSharer(m int)    { le.sharers[m>>6] |= 1 << (m & 63) }
func (le LineEntry) removeSharer(m int) { le.sharers[m>>6] &^= 1 << (m & 63) }

// lineChunk holds the entries of one chunkBytes span of line addresses.
// Both slices are nil until a line of the span is first touched.
type lineChunk struct {
	owner   []uint16 // per line
	sharers []uint64 // per line, words consecutive words
}

// LineEngine is the line-grained coherence state machine of one domain: the
// member caches, the line-sharing table, and the StateKind policy deciding
// fill states. It performs the state transitions every interconnect needs —
// claim on write, fill on read, sharer invalidation sweeps, owner
// downgrades — while the interconnect (SnoopBus, Directory) prices them.
//
// Members are domain-relative: for the machine-wide smp/dsm engines the
// member index IS the processor id; for the per-cluster engines of the
// two-level hierarchy it is the processor's index within its cluster.
//
// The line table is dense: chunks[la>>chunkShift] covers chunkBytes of
// address space, allocated on first touch, so finding a line's entry is an
// indexed load and simulated addresses (allocated contiguously from the
// first page) keep it compact.
type LineEngine struct {
	Sts    StateKind
	NP     int // members of this coherence domain
	Caches []*cache.Hierarchy

	chunks     []lineChunk
	words      int  // sharer-set words per line
	chunkShift uint // log2(lines per chunk)
	lineShift  uint // log2(line size)
}

// NewLineEngine builds an engine of np member caches with the given
// hierarchy configuration, wiring L2 evictions back into the line table
// (an evicted line stops being a sharer; an evicted owner's dirty line
// conceptually writes back to memory). np must pass CheckMembers; the
// platform presets validate it before attaching.
func NewLineEngine(sts StateKind, cfg cache.Config, np int) *LineEngine {
	if err := CheckMembers(np); err != nil {
		panic(err)
	}
	e := &LineEngine{Sts: sts, NP: np, words: (np + 63) / 64}
	e.lineShift = uint(bits.TrailingZeros(uint(cfg.Line)))
	if cfg.Line < chunkBytes {
		e.chunkShift = uint(bits.TrailingZeros(chunkBytes / uint(cfg.Line)))
	}
	e.Caches = make([]*cache.Hierarchy, np)
	for i := 0; i < np; i++ {
		h := cache.New(cfg)
		m := i
		h.OnL2Evict = func(la uint64, st cache.State) {
			if le, ok := e.Lookup(la); ok {
				le.removeSharer(m)
				if le.Owner() == m {
					le.setOwner(-1)
				}
			}
		}
		e.Caches[i] = h
	}
	return e
}

// Reset returns the engine to its post-New state — cold caches, every line
// untouched — reusing the caches' tag arrays and the table's chunks, so a
// platform reattached for another run allocates nothing here.
func (e *LineEngine) Reset() {
	for _, h := range e.Caches {
		h.Reset()
	}
	for i := range e.chunks {
		clear(e.chunks[i].owner)
		clear(e.chunks[i].sharers)
	}
}

// LineSize returns the coherence granularity in bytes.
func (e *LineEngine) LineSize() int { return 1 << e.lineShift }

// Entry returns the line entry for la; an untouched line is ownerless with
// no sharers.
func (e *LineEngine) Entry(la uint64) LineEntry {
	ci := la >> e.chunkShift
	if ci >= uint64(len(e.chunks)) {
		e.growChunks(int(ci) + 1)
	}
	c := &e.chunks[ci]
	if c.owner == nil {
		n := 1 << e.chunkShift
		c.owner = make([]uint16, n)
		c.sharers = make([]uint64, n*e.words)
	}
	return c.entry(int(la&(1<<e.chunkShift-1)), e.words)
}

// Lookup returns la's entry without allocating, and false when the table
// has never touched la's chunk.
func (e *LineEngine) Lookup(la uint64) (LineEntry, bool) {
	ci := la >> e.chunkShift
	if ci >= uint64(len(e.chunks)) || e.chunks[ci].owner == nil {
		return LineEntry{}, false
	}
	return e.chunks[ci].entry(int(la&(1<<e.chunkShift-1)), e.words), true
}

func (c *lineChunk) entry(i, words int) LineEntry {
	return LineEntry{owner: &c.owner[i], sharers: c.sharers[i*words : (i+1)*words : (i+1)*words]}
}

// growChunks extends the chunk index to at least n chunks, at least doubling
// it so a run touching ascending addresses regrows it O(log n) times.
func (e *LineEngine) growChunks(n int) {
	n = max(n, 2*len(e.chunks))
	e.chunks = append(e.chunks, make([]lineChunk, n-len(e.chunks))...)
}

// DropLines resets every line overlapping [addr, addr+n) to untouched. A
// page-grained layer above the engine calls it after invalidating the
// page's lines in the member caches; a 4 KB page is one chunk reset in
// place.
func (e *LineEngine) DropLines(addr uint64, n int) {
	if n <= 0 {
		return
	}
	mask := uint64(1)<<e.chunkShift - 1
	last := (addr + uint64(n) - 1) >> e.lineShift
	for la := addr >> e.lineShift; la <= last; la = (la | mask) + 1 {
		ci := la >> e.chunkShift
		if ci >= uint64(len(e.chunks)) {
			return
		}
		c := &e.chunks[ci]
		if c.owner == nil {
			continue
		}
		i, j := la&mask, min(last, la|mask)&mask+1
		clear(c.owner[i:j])
		clear(c.sharers[i*uint64(e.words) : j*uint64(e.words)])
	}
}

// HasLine reports whether member m's cache currently holds the line of addr.
func (e *LineEngine) HasLine(m int, addr uint64) bool {
	lvl, _ := e.Caches[m].Probe(addr)
	return lvl != cache.Miss
}

// InvalidateSharers invalidates every recorded sharer of le except self, in
// ascending member order (part of run determinism), returning how many
// copies were destroyed.
func (e *LineEngine) InvalidateSharers(le LineEntry, self int, addr uint64) int {
	n := 0
	for i, w := range le.sharers {
		for w != 0 {
			q := i<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			if q != self {
				e.Caches[q].SetState(addr, cache.Invalid)
				n++
			}
		}
	}
	return n
}

// WriteClaim installs member m as the sole Modified owner of addr's line.
// Access applies its fill state only on a miss; on a write UPGRADE the line
// hits in state Shared and would stay Shared, so the owner would keep
// paying upgrade transactions for a line it owns — hence the explicit
// SetState after the access (the write-upgrade bug PR 3 fixed three times
// across the clones, now fixed once).
func (e *LineEngine) WriteClaim(m int, addr uint64, le LineEntry) {
	clear(le.sharers)
	le.addSharer(m)
	le.setOwner(m)
	e.Caches[m].Access(addr, true, cache.Modified)
	e.Caches[m].SetState(addr, cache.Modified)
}

// DowngradeOwner makes the current exclusive owner supply the line and drop
// to Shared (the cache-to-cache transfer of a read miss on a dirty line).
func (e *LineEngine) DowngradeOwner(le LineEntry, addr uint64) {
	o := le.Owner()
	e.Caches[o].SetState(addr, cache.Shared)
	le.addSharer(o)
	le.setOwner(-1)
}

// ReadFill records member m as a sharer and fills its cache, choosing the
// fill state by the engine's coherence state machine: under MESI a sole
// sharer of an ownerless line fills Exclusive and becomes the owner (so a
// later write upgrades silently); under MSI every read fills Shared.
func (e *LineEngine) ReadFill(m int, addr uint64, le LineEntry) {
	le.addSharer(m)
	fill := cache.Shared
	if e.Sts == MESI && le.Owner() < 0 && !le.OtherSharers(m) {
		fill = cache.Exclusive
		le.setOwner(m)
	}
	e.Caches[m].Access(addr, false, fill)
}

// CheckInvariants audits the line table against the member caches — the
// single implementation of the MESI/MSI sharing invariants the clones each
// carried a copy of. scope prefixes every message ("smp", "dsm",
// "svmsmp: cluster 3"). The invariants:
//
//   - an exclusive owner is the ONLY sharer and holds the line Modified or
//     Exclusive in its L2 (under MSI no line is ever Exclusive);
//   - without an owner, every recorded sharer holds the line Shared;
//   - a sharer bit is set if and only if that member's cache holds the line
//     (OnL2Evict keeps the reverse direction, invalidations the forward);
//   - each hierarchy preserves multilevel inclusion and its residency
//     bitmap matches its L2 (cache.Hierarchy.CheckInvariants).
//
// Lines are visited in ascending address order, so a violating run reports
// the same line every time.
func (e *LineEngine) CheckInvariants(scope string) error {
	for ci := range e.chunks {
		c := &e.chunks[ci]
		for i := range c.owner {
			if le := c.entry(i, e.words); !le.empty() {
				if err := e.checkLine(scope, uint64(ci)<<e.chunkShift|uint64(i), le); err != nil {
					return err
				}
			}
		}
	}
	for q := 0; q < e.NP; q++ {
		if err := e.Caches[q].CheckInvariants(); err != nil {
			return fmt.Errorf("%s: member %d: %w", scope, q, err)
		}
		var lerr error
		e.Caches[q].LinesL2(func(la uint64, st cache.State) {
			if lerr != nil {
				return
			}
			if le, ok := e.Lookup(la); !ok || !le.Sharer(q) {
				lerr = fmt.Errorf("%s: member %d caches line %#x (state %s) unknown to the line table", scope, q, la, st)
			}
		})
		if lerr != nil {
			return lerr
		}
	}
	return nil
}

// checkLine audits one touched entry of the line table.
func (e *LineEngine) checkLine(scope string, la uint64, le LineEntry) error {
	if tail := e.NP & 63; tail != 0 && le.sharers[e.words-1]>>tail != 0 {
		return fmt.Errorf("%s: line %#x has sharer bits %#x beyond its %d members", scope, la, le.sharers[e.words-1], e.NP)
	}
	owner := le.Owner()
	if owner >= 0 {
		if owner >= e.NP {
			return fmt.Errorf("%s: line %#x owned by out-of-range member %d", scope, la, owner)
		}
		if !le.Sharer(owner) || le.OtherSharers(owner) {
			return fmt.Errorf("%s: line %#x has owner %d but sharers %#x (owner must be sole sharer)", scope, la, owner, le.sharers)
		}
	}
	addr := la << e.lineShift
	for q := 0; q < e.NP; q++ {
		bit := le.Sharer(q)
		lvl, st := e.Caches[q].Probe(addr)
		holds := lvl != cache.Miss
		if bit && !holds {
			return fmt.Errorf("%s: line %#x lists member %d as sharer but its cache lost the line", scope, la, q)
		}
		if !holds {
			continue
		}
		if owner == q {
			if st != cache.Modified && st != cache.Exclusive {
				return fmt.Errorf("%s: line %#x owner %d holds it in state %s, want M or E", scope, la, q, st)
			}
			if e.Sts == MSI && st == cache.Exclusive {
				return fmt.Errorf("%s: line %#x held Exclusive by member %d under MSI (no E state)", scope, la, q)
			}
		} else if bit && st != cache.Shared {
			return fmt.Errorf("%s: line %#x non-owner sharer %d holds it in state %s, want S", scope, la, q, st)
		}
	}
	return nil
}
