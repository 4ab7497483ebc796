package protocol

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Directory prices coherence actions as full-map directory transactions in a
// CC-NUMA machine: every miss or upgrade visits the line's home directory
// controller (the contended resource), and latency depends on how many
// network hops the protocol needs — local memory, 2-hop clean fills, 3-hop
// dirty fetches. Memory is physically distributed; placement comes from the
// address space's page homes.
type Directory struct {
	P      DirParams
	AS     *mem.AddressSpace
	NP     int
	dirOcc []sim.Resource // per home node
}

// Reset implements Transport.
func (t *Directory) Reset() { t.dirOcc = make([]sim.Resource, t.NP) }

// Kind implements Transport.
func (t *Directory) Kind() string { return "directory" }

// SlowLine implements Transport: a directory transaction for a miss or
// upgrade by member m (== gp: the directory engine is always machine-wide).
// Accounting: fills satisfied entirely by local home memory are CacheStall;
// anything involving another node is DataWait, with 2-/3-hop classification
// emitted to the trace stream.
func (t *Directory) SlowLine(k *sim.Kernel, e *LineEngine, m, gp int, now, addr uint64, write bool) sim.AccessCost {
	h := e.Caches[m]
	la := h.LineOf(addr)
	home := t.AS.Home(addr)
	le := e.Entry(la)
	c := k.Counters(gp)
	var cost sim.AccessCost

	// Home directory occupancy models contention at home nodes.
	start := t.dirOcc[home].Acquire(now, t.P.DirOccupy)
	contention := start - now
	k.Emit(trace.DirOccupy, home, start, la, t.P.DirOccupy)
	var kind trace.Kind // 2-/3-hop classification for the trace stream

	switch {
	case write:
		var base uint64
		remoteOwner := le.Owner() >= 0 && le.Owner() != m
		remoteSharers := le.OtherSharers(m)
		switch {
		case remoteOwner:
			// 3-hop: fetch dirty line from owner, invalidate it.
			base = t.P.RemoteDirty
			if home == m {
				base = t.P.RemoteDirty - 50
			}
			e.Caches[le.Owner()].SetState(addr, cache.Invalid)
			c.ThreeHopMisses++
			c.RemoteMisses++
			kind = trace.Miss3Hop
		case remoteSharers || le.Sharer(m) && e.HasLine(m, addr):
			// Upgrade (or fetch+invalidate) with sharers.
			base = t.P.UpgradeBase
			if home != m {
				base += t.P.UpgradeHop
				c.RemoteMisses++
				kind = trace.Miss2Hop
			} else {
				c.LocalMisses++
			}
			n := e.InvalidateSharers(le, m, addr)
			base += uint64(n) * t.P.InvalPer
		default:
			// Plain write miss from memory.
			if home == m {
				base = t.P.LocalMem
				c.LocalMisses++
			} else {
				base = t.P.RemoteClean
				c.RemoteMisses++
				kind = trace.Miss2Hop
			}
		}
		e.WriteClaim(m, addr, le)
		if home == m && !remoteOwner && !remoteSharers {
			cost.CacheStall += base + contention
		} else {
			cost.DataWait += base + contention
		}

	default: // read miss
		var base uint64
		if o := le.Owner(); o >= 0 && o != m {
			// 3-hop: owner supplies the line and downgrades.
			base = t.P.RemoteDirty
			e.DowngradeOwner(le, addr)
			c.ThreeHopMisses++
			c.RemoteMisses++
			kind = trace.Miss3Hop
			cost.DataWait += base + contention
		} else if home == m {
			base = t.P.LocalMem
			c.LocalMisses++
			cost.CacheStall += base + contention
		} else {
			base = t.P.RemoteClean
			c.RemoteMisses++
			kind = trace.Miss2Hop
			cost.DataWait += base + contention
		}
		e.ReadFill(m, addr, le)
	}
	if kind != trace.KindNone {
		k.Emit(kind, gp, now, la, cost.DataWait)
	}
	return cost
}

// LockGrant implements Transport: an uncontended hardware lock costs about a
// remote miss; no protocol consistency work happens at acquire (coherence is
// at access time, paper §5.2).
func (t *Directory) LockGrant(k *sim.Kernel, now uint64, lock int) uint64 {
	return t.P.LockAcquire
}

// CheckOccupancy implements Transport: no home's directory controller may be
// charged more occupancy than wall time.
func (t *Directory) CheckOccupancy(scope string) error {
	for q := range t.dirOcc {
		if err := t.dirOcc[q].CheckOccupancy(fmt.Sprintf("%s: home %d directory", scope, q)); err != nil {
			return err
		}
	}
	return nil
}

var _ Transport = (*Directory)(nil)
