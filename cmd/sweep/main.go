// Command sweep runs one application version across processor counts on one
// or all platforms — the paper's §7 future-work question ("when we use real
// systems, we plan to investigate the issues with larger numbers of
// processors"), answerable here by simulation.
//
// Sweep is a flag front end over internal/campaign: the cell matrix
// (processor counts × platforms, plus each platform's uniprocessor
// baseline) runs on the same journalless local runner a one-app campaign
// uses, and the table is campaign.ScalingTable, the block `campaign
// -table` prints, with rows in -procs order. For anything bigger — many
// apps, predicates, resumability, a serve fleet — use cmd/campaign.
//
// A failing cell prints as "error" while the rest of the sweep completes;
// failures are listed on stderr and the exit code is 1.
//
//	sweep -app ocean -version rows -platform svm -procs 1,2,4,8,16,32
//	sweep -app ocean -version rows -store DIR   # incremental: cached cells are not re-simulated
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	_ "repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/platform"
)

// parseProcs parses a -procs flag value: comma-separated positive integers
// with no duplicates. A dup would either waste a run or (worse) silently
// render the same row twice.
func parseProcs(s string) ([]int, error) {
	var counts []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad processor count %q (want a positive integer)", strings.TrimSpace(f))
		}
		if seen[n] {
			return nil, fmt.Errorf("duplicate processor count %d in -procs %q", n, s)
		}
		seen[n] = true
		counts = append(counts, n)
	}
	return counts, nil
}

// sweepCells enumerates the matrix for one app/version: every (processor
// count × platform) cell plus each platform's uniprocessor baseline,
// deduplicated (a 1-processor sweep of the original version IS its own
// baseline).
func sweepCells(app, version string, plats []string, procs []int, scale float64) []campaign.Cell {
	seen := map[string]bool{}
	var cells []campaign.Cell
	add := func(spec harness.Spec) {
		key := spec.MemoKey()
		if !seen[key] {
			seen[key] = true
			cells = append(cells, campaign.Cell{Spec: spec, Key: key})
		}
	}
	for _, pl := range plats {
		cell := harness.Spec{App: app, Version: version, Platform: pl, Scale: scale}
		add(cell.Baseline())
		for _, np := range procs {
			cell.NumProcs = np
			add(cell)
		}
	}
	return cells
}

// parsePlatform resolves the -platform flag: empty means the paper's
// platforms, anything else must name a preset.
func parsePlatform(s string) ([]string, error) {
	if s == "" {
		return platform.PaperNames(), nil
	}
	if !slices.Contains(platform.PresetNames(), s) {
		return nil, fmt.Errorf("unknown platform %q (want one of %v)", s, platform.PresetNames())
	}
	return []string{s}, nil
}

func main() {
	app := flag.String("app", "ocean", "application name")
	version := flag.String("version", "rows", "application version")
	plat := flag.String("platform", "", fmt.Sprintf("platform, one of %v; empty = the paper's %v", platform.PresetNames(), platform.PaperNames()))
	procs := flag.String("procs", "1,2,4,8,16", "comma-separated processor counts")
	scale := flag.Float64("scale", 1, "problem size scale factor")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	storeDir := flag.String("store", "", "persistent result store directory; already-computed cells are loaded instead of simulated")
	flag.Parse()

	counts, err := parseProcs(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	plats, err := parsePlatform(*plat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	memo, err := campaign.OpenMemo(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	cells := sweepCells(*app, *version, plats, counts, *scale)
	runner := &campaign.Runner{
		Name:  "sweep",
		Cells: cells,
		Exec:  &campaign.Local{Memo: memo, Workers: *workers},
	}
	rep, _ := runner.Run(context.Background()) // no journal and a background ctx: never interrupted

	// Render the table serially from the settled entries, so it is
	// byte-identical to a serial run regardless of -workers.
	campaign.ScalingTable(os.Stdout, rep.Entries, harness.Spec{App: *app, Version: *version, Scale: *scale}, plats, counts)

	fmt.Fprintf(os.Stderr, "sweep: cache: %s\n", memo.Stats())

	if fails := rep.Failed(); len(fails) > 0 {
		inMatrix := map[int]bool{}
		for _, np := range counts {
			inMatrix[np] = true
		}
		var lines []string
		for _, c := range rep.Cells {
			e, ok := rep.Entries[c.Key]
			if !ok || e.Status != "failed" {
				continue
			}
			what := fmt.Sprintf("P=%d on %s", c.Spec.NumProcs, c.Spec.Platform)
			if c.Spec.Version != *version || !inMatrix[c.Spec.NumProcs] {
				what = "baseline on " + c.Spec.Platform
			}
			msg := e.Msg
			if msg == "" {
				msg = e.Kind
			}
			lines = append(lines, fmt.Sprintf("  %s: %s", what, msg))
		}
		sort.Strings(lines)
		fmt.Fprintf(os.Stderr, "sweep: %d cell(s) failed:\n", len(fails))
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, l)
		}
		os.Exit(1)
	}
}
