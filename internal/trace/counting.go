package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Counting aggregates the event stream into per-kind, per-page and per-lock
// totals. It is the paper's §6 wished-for performance-debugging tool ("the
// detailed simulator served as an excellent though slow performance
// debugging tool"): Report renders the hot pages and hot locks of a run on
// any platform, from the same event stream that feeds -trace.
type Counting struct {
	np        int
	kindCount [NumKinds]uint64
	kindCost  [NumKinds]uint64

	pageFetch   map[uint64][]uint64 // page -> per-proc fetch counts
	pageHome    map[uint64]int32    // page -> home domain that served it
	pageDiff    map[uint64]uint64   // page -> diffs created against its home copy
	pageWriters map[uint64][]uint64 // page -> bitset of writer procs, np bits
	lockAcq     map[uint64]uint64   // lock -> grants
	lockXfer    map[uint64]uint64   // lock -> grants from a different holder
}

// NewCounting creates a counting sink for np processors.
func NewCounting(np int) *Counting {
	return &Counting{
		np:          np,
		pageFetch:   map[uint64][]uint64{},
		pageHome:    map[uint64]int32{},
		pageDiff:    map[uint64]uint64{},
		pageWriters: map[uint64][]uint64{},
		lockAcq:     map[uint64]uint64{},
		lockXfer:    map[uint64]uint64{},
	}
}

// Emit implements Sink.
func (c *Counting) Emit(e Event) {
	if e.Kind >= NumKinds {
		return
	}
	c.kindCount[e.Kind]++
	c.kindCost[e.Kind] += e.Cost
	switch e.Kind {
	case PageFetch:
		v := c.pageFetch[e.Arg]
		if v == nil {
			v = make([]uint64, c.np)
			c.pageFetch[e.Arg] = v
		}
		if int(e.Proc) >= 0 && int(e.Proc) < len(v) {
			v[e.Proc]++
		}
	case NICOccupy:
		// The page engine stamps every fetch (and every diff applied) with
		// the occupancy of the home's NIC: Proc is the home domain.
		c.pageHome[e.Arg] = e.Proc
	case DiffCreate:
		c.pageDiff[e.Arg]++
	case WriteTrap:
		if int(e.Proc) >= 0 && int(e.Proc) < c.np {
			w := c.pageWriters[e.Arg]
			if w == nil {
				w = make([]uint64, (c.np+63)/64)
				c.pageWriters[e.Arg] = w
			}
			w[e.Proc/64] |= 1 << uint(e.Proc%64)
		}
	case LockGrant:
		c.lockAcq[e.Arg]++
	case LockTransfer:
		c.lockXfer[e.Arg]++
	}
}

// Count returns how many events of kind k were emitted.
func (c *Counting) Count(k Kind) uint64 {
	if k >= NumKinds {
		return 0
	}
	return c.kindCount[k]
}

// Cost returns the total Cost cycles over all events of kind k.
func (c *Counting) Cost(k Kind) uint64 {
	if k >= NumKinds {
		return 0
	}
	return c.kindCost[k]
}

// PageTotals summarizes the traffic to one page over a run.
type PageTotals struct {
	Page    uint64
	Home    int    // home domain that served its fetches
	Fetches uint64 // remote fetches of this page, all processors
	Diffs   uint64 // diffs created against its home copy
	Writers int    // distinct processors that dirtied it
	MaxProc uint64 // largest per-processor fetch count (imbalance hint)
}

// LockTotals summarizes the traffic to one lock over a run.
type LockTotals struct {
	Lock      int
	Acquires  uint64
	Transfers uint64 // acquisitions by a different processor than the releaser
}

// PageTotals returns every fetched page's totals, most-fetched first (ties
// by page number, so the order is deterministic).
func (c *Counting) PageTotals() []PageTotals {
	out := make([]PageTotals, 0, len(c.pageFetch))
	for pg, per := range c.pageFetch {
		pt := PageTotals{Page: pg, Home: int(c.pageHome[pg]), Diffs: c.pageDiff[pg]}
		for _, w := range c.pageWriters[pg] {
			pt.Writers += bits.OnesCount64(w)
		}
		for _, n := range per {
			pt.Fetches += n
			if n > pt.MaxProc {
				pt.MaxProc = n
			}
		}
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fetches != out[j].Fetches {
			return out[i].Fetches > out[j].Fetches
		}
		return out[i].Page < out[j].Page
	})
	return out
}

// LockTotals returns every acquired lock's totals, busiest first (ties by
// lock id, so the order is deterministic).
func (c *Counting) LockTotals() []LockTotals {
	out := make([]LockTotals, 0, len(c.lockAcq))
	for l, a := range c.lockAcq {
		out = append(out, LockTotals{Lock: int(l), Acquires: a, Transfers: c.lockXfer[l]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Acquires != out[j].Acquires {
			return out[i].Acquires > out[j].Acquires
		}
		return out[i].Lock < out[j].Lock
	})
	return out
}

// Report renders the n most-fetched pages and the n most-acquired locks as
// text tables, busiest first (every one of them when n <= 0). This is the
// svmsim -hot output.
func (c *Counting) Report(n int) string {
	pages, locks := c.PageTotals(), c.LockTotals()
	if n > 0 {
		pages, locks = pages[:min(n, len(pages))], locks[:min(n, len(locks))]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hot pages (top %d):\n", n)
	fmt.Fprintf(&b, "%10s %5s %8s %8s %8s %8s\n", "page", "home", "fetches", "diffs", "writers", "maxproc")
	for _, p := range pages {
		fmt.Fprintf(&b, "%10d %5d %8d %8d %8d %8d\n", p.Page, p.Home, p.Fetches, p.Diffs, p.Writers, p.MaxProc)
	}
	fmt.Fprintf(&b, "hot locks (top %d):\n", n)
	fmt.Fprintf(&b, "%10s %10s %10s\n", "lock", "acquires", "transfers")
	for _, l := range locks {
		fmt.Fprintf(&b, "%10d %10d %10d\n", l.Lock, l.Acquires, l.Transfers)
	}
	return b.String()
}

var _ Sink = (*Counting)(nil)
