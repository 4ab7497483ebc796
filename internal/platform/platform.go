// Package platform assembles the machine models as named presets. The
// paper's three platforms are "svm" (page-grained shared virtual memory,
// HLRC), "smp" (bus-based hardware cache coherence, SGI Challenge-like) and
// "dsm" (CC-NUMA hardware cache coherence with a distributed directory).
// The remaining presets are compositions of the same protocol engines.
package platform

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/svmsmp"
)

// PageSize is the allocation/placement granularity shared by all presets:
// the SVM page size (4 KB), which the DSM preset also uses as its memory
// placement granularity.
const PageSize = 4096

// preset is one named machine model. paper marks the paper's own
// platforms, the set the figures iterate over.
type preset struct {
	name  string
	paper bool
	build func(name string, as *mem.AddressSpace, np int) (sim.Platform, error)
}

// presets is the one list of machine models: the paper's three platforms
// first, in paper order, then the §7 future-work hierarchy and the
// protocol-engine compositions. A new composition is one more row.
var presets = []preset{
	{"svm", true, func(_ string, as *mem.AddressSpace, np int) (sim.Platform, error) {
		return svm.New(as, svm.DefaultParams(), np), nil
	}},
	// The SGI Challenge: {MESI × SnoopBus}.
	{"smp", true, busMachine(protocol.MESI)},
	// The DASH-like CC-NUMA: {MESI × Directory} over the page homes.
	{"dsm", true, dirMachine(protocol.MESI)},
	// The paper's §7 hierarchy: SMP nodes of four processors connected by
	// SVM.
	{"svmsmp", false, func(_ string, as *mem.AddressSpace, np int) (sim.Platform, error) {
		return svmsmp.New(as, svmsmp.DefaultParams(), np), nil
	}},
	// The hardware machines with the MESI axis swapped for plain MSI. On
	// the directory machine every read fills Shared, so read-then-write
	// pays an upgrade even with no other sharer.
	{"smp-msi", false, busMachine(protocol.MSI)},
	{"dsm-msi", false, dirMachine(protocol.MSI)},
}

// busMachine builds a snooping-bus machine with the Challenge's caches and
// costs. Like every hardware-coherent preset, it refuses more processors
// than one line engine can hold with a *sim.ConfigError.
func busMachine(sts protocol.StateKind) func(string, *mem.AddressSpace, int) (sim.Platform, error) {
	return func(name string, _ *mem.AddressSpace, np int) (sim.Platform, error) {
		if err := protocol.CheckMembers(np); err != nil {
			return nil, err
		}
		return protocol.NewBusMachine(name, sts, protocol.BusCacheConfig, protocol.DefaultBusParams(), np), nil
	}
}

// dirMachine builds a directory machine with the CC-NUMA node caches and
// costs over the address space's page homes.
func dirMachine(sts protocol.StateKind) func(string, *mem.AddressSpace, int) (sim.Platform, error) {
	return func(name string, as *mem.AddressSpace, np int) (sim.Platform, error) {
		if err := protocol.CheckMembers(np); err != nil {
			return nil, err
		}
		return protocol.NewDirMachine(name, sts, protocol.DirCacheConfig, as, protocol.DefaultDirParams(), np), nil
	}
}

// PaperNames lists the paper's three platforms in paper order; the figures
// iterate over these.
func PaperNames() []string {
	var out []string
	for _, p := range presets {
		if p.paper {
			out = append(out, p.name)
		}
	}
	return out
}

// PresetNames lists every preset Make can build, paper platforms first.
// Spec validation checks platform names against it, and the
// cross-platform differential suites sweep it.
func PresetNames() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.name
	}
	return out
}

// Make builds the named preset over the given address space.
func Make(name string, as *mem.AddressSpace, np int) (sim.Platform, error) {
	for _, p := range presets {
		if p.name == name {
			return p.build(name, as, np)
		}
	}
	return nil, fmt.Errorf("platform: unknown preset %q (want one of %v)", name, PresetNames())
}
