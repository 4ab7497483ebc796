package platform

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestMakeAllPresets(t *testing.T) {
	for _, name := range append(append([]string{}, Names...), "svmsmp", "smp-msi", "dsm-msi") {
		as := mem.NewAddressSpace(PageSize, 8)
		pl, err := Make(name, as, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Name() != name {
			t.Errorf("%s preset reports name %q", name, pl.Name())
		}
	}
}

func TestMakeUnknown(t *testing.T) {
	as := mem.NewAddressSpace(PageSize, 2)
	if _, err := Make("vax", as, 2); err == nil {
		t.Error("expected error for unknown preset")
	}
}

func TestIsHardwareCoherent(t *testing.T) {
	if IsHardwareCoherent("svm") || IsHardwareCoherent("svmsmp") {
		t.Error("page-grained platforms misclassified as hardware-coherent")
	}
	if !IsHardwareCoherent("smp") || !IsHardwareCoherent("dsm") ||
		!IsHardwareCoherent("smp-msi") || !IsHardwareCoherent("dsm-msi") {
		t.Error("hardware platforms misclassified")
	}
}

// A hardware-coherent machine wider than one line engine can record owners
// for is refused with a structured error, never built with wrapped owner
// ids; the page-grained presets have no such limit.
func TestMakeRefusesOversizedLineDomain(t *testing.T) {
	np := protocol.MaxMembers + 1
	for _, name := range AllPresets {
		as := mem.NewAddressSpace(PageSize, np)
		_, err := Make(name, as, np)
		var ce *sim.ConfigError
		if IsHardwareCoherent(name) != errors.As(err, &ce) {
			t.Errorf("%s at P=%d: err = %v", name, np, err)
		}
	}
	as := mem.NewAddressSpace(PageSize, protocol.MaxMembers)
	if _, err := Make("smp", as, protocol.MaxMembers); err != nil {
		t.Errorf("smp at P=%d: %v", protocol.MaxMembers, err)
	}
}

// A platform attached to a second run resets its engines in place instead of
// rebuilding them; the second run must see the same cold machine as the
// first and produce the identical result.
func TestReattachedRunIsIdentical(t *testing.T) {
	const np = 8
	for _, name := range AllPresets {
		as := mem.NewAddressSpace(PageSize, np)
		a := as.AllocPages(16 * PageSize)
		as.DistributeRoundRobin(a, 16*PageSize)
		pl, err := Make(name, as, np)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.New(pl, sim.Config{NumProcs: np, Check: true})
		body := func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				p.ReadRange(a, 16*PageSize)
				p.Lock(1)
				p.Write(a + uint64(p.ID()*PageSize+i*64))
				p.Unlock(1)
				p.Barrier()
			}
		}
		var runs [2]stats.Run
		for i := range runs {
			run, err := k.RunErr("reattach", body)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			runs[i] = *run
			runs[i].Procs = slices.Clone(run.Procs)
		}
		if runs[0].EndTime != runs[1].EndTime || !slices.Equal(runs[0].Procs, runs[1].Procs) {
			t.Errorf("%s: second run differs from the first (end %d vs %d)", name, runs[0].EndTime, runs[1].EndTime)
		}
	}
}
