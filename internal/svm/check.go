package svm

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/sim"
)

// IntervalOverflowError reports that a node's uint32 interval counter was
// about to wrap; see protocol.IntervalOverflowError. The svmsmp platform
// reuses this error with Node naming the cluster.
type IntervalOverflowError = protocol.IntervalOverflowError

// CheckInvariants implements sim.InvariantChecked: the HLRC protocol
// invariants, audited once by the page engine for every composition (see
// protocol.PageEngine.CheckInvariants for the list), then each node cache's
// inclusion and residency bitmap (cache.Hierarchy.CheckInvariants), which
// page invalidation relies on to find a page's resident lines.
func (s *Platform) CheckInvariants() error {
	if err := s.eng.CheckInvariants(); err != nil {
		return err
	}
	for n, h := range s.caches {
		if err := h.CheckInvariants(); err != nil {
			return fmt.Errorf("svm: node %d: %w", n, err)
		}
	}
	return nil
}

var _ sim.InvariantChecked = (*Platform)(nil)
