package main

// simWork is simulated work summed over cells: the counters of each cell
// document and its end time. It is deterministic, so two runs of the same
// cells must report identical simWork whatever the host did.
type simWork struct {
	refs, cycles, lockAcquires, barriers   uint64
	l1Misses, l2Misses                     uint64
	pageFaults, pageFetches, invalidations uint64
	diffsCreated, diffsApplied             uint64
	busTxns, remoteMisses, threeHopMisses  uint64
}

func (w *simWork) add(d cellDoc) {
	c := d.Counters
	w.refs += c.Reads + c.Writes
	w.cycles += d.EndTime
	w.lockAcquires += c.LockAcquires
	w.barriers += c.Barriers
	w.l1Misses += c.L1Misses
	w.l2Misses += c.L2Misses
	w.pageFaults += c.PageFaults
	w.pageFetches += c.PageFetches
	w.invalidations += c.Invalidations
	w.diffsCreated += c.DiffsCreated
	w.diffsApplied += c.DiffsApplied
	w.busTxns += c.BusTransactions
	w.remoteMisses += c.RemoteMisses
	w.threeHopMisses += c.ThreeHopMisses
}

// addWork adds the work of other cells.
func (w *simWork) addWork(o simWork) {
	w.refs += o.refs
	w.cycles += o.cycles
	w.lockAcquires += o.lockAcquires
	w.barriers += o.barriers
	w.l1Misses += o.l1Misses
	w.l2Misses += o.l2Misses
	w.pageFaults += o.pageFaults
	w.pageFetches += o.pageFetches
	w.invalidations += o.invalidations
	w.diffsCreated += o.diffsCreated
	w.diffsApplied += o.diffsApplied
	w.busTxns += o.busTxns
	w.remoteMisses += o.remoteMisses
	w.threeHopMisses += o.threeHopMisses
}

// addMetrics reports w, divided by k, as per-layer count metrics.
func (w simWork) addMetrics(res *result, k float64) {
	for _, m := range []struct {
		name string
		v    uint64
	}{
		{"sim.refs", w.refs}, {"sim.cycles", w.cycles},
		{"sim.lock_acquires", w.lockAcquires}, {"sim.barriers", w.barriers},
		{"cache.l1_misses", w.l1Misses}, {"cache.l2_misses", w.l2Misses},
		{"protocol.page_faults", w.pageFaults}, {"protocol.page_fetches", w.pageFetches},
		{"protocol.invalidations", w.invalidations},
		{"protocol.diffs_created", w.diffsCreated}, {"protocol.diffs_applied", w.diffsApplied},
		{"protocol.bus_txns", w.busTxns}, {"protocol.remote_misses", w.remoteMisses},
		{"protocol.three_hop_misses", w.threeHopMisses},
	} {
		unit := "count"
		if m.name == "sim.cycles" {
			unit = "cycles"
		}
		res.add(m.name, float64(m.v)/k, unit, 0)
	}
}
