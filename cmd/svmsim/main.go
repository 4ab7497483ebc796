// Command svmsim runs one application version on one platform model and
// prints the per-processor execution time breakdown, counters, and speedup
// versus the uniprocessor original — the tool used to reproduce any single
// data point from the paper.
//
// Usage:
//
//	svmsim -app lu -version 4da -platform svm -p 16 -scale 1.0 [-speedup] [-freecs]
//	svmsim -app lu -version 4d -platform svm -trace out.json   # Perfetto timeline
//	svmsim -app radix -json                                    # machine-readable result
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	_ "repro/internal/apps"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams as parameters,
// returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "lu", "application name")
	version := fs.String("version", "orig", "application version")
	plat := fs.String("platform", "svm", fmt.Sprintf("platform, one of %v", platform.PresetNames()))
	np := fs.Int("p", 16, "number of simulated processors")
	scale := fs.Float64("scale", 1.0, "problem size scale factor")
	speedup := fs.Bool("speedup", false, "also compute speedup vs uniprocessor original")
	freecs := fs.Bool("freecs", false, "paper diagnostic: page faults inside critical sections are free")
	hot := fs.Bool("hot", false, "print the hot-page / hot-lock profile (paper §6's performance tool)")
	list := fs.Bool("list", false, "list applications and versions")
	traceOut := fs.String("trace", "", "write a Chrome/Perfetto trace of protocol events to this file")
	traceBuf := fs.Int("trace-buffer", 0, "keep the last N protocol events for post-mortem dumps on simulation errors")
	sample := fs.Uint64("sample", 0, "sample the breakdown every N cycles into the trace (default 100000 with -trace)")
	jsonOut := fs.Bool("json", false, "print the result as machine-readable JSON instead of tables")
	check := fs.Bool("check", false, "enable runtime invariant checking (scheduler, protocol state, accounting)")
	storeDir := fs.String("store", "", "persistent result store directory; a cached cell is loaded instead of simulated (ignored with -trace/-sample/-hot)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, name := range core.Apps() {
			a, _ := core.Lookup(name)
			fmt.Fprintf(stdout, "%s:\n", name)
			for _, v := range a.Versions() {
				fmt.Fprintf(stdout, "  %-10s %-5s %s\n", v.Name, v.Class, v.Desc)
			}
		}
		return 0
	}

	spec := harness.Spec{
		App: *app, Version: *version, Platform: *plat,
		NumProcs: *np, Scale: *scale, FreeCSFaults: *freecs,
		TraceRing: *traceBuf, Check: *check,
	}
	var chrome *trace.Chrome
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "svmsim:", err)
			return 1
		}
		defer f.Close()
		chrome = trace.NewChrome(f)
		spec.TraceSink = chrome
		spec.SampleInterval = *sample
		if spec.SampleInterval == 0 {
			spec.SampleInterval = 100000
		}
	} else if *sample > 0 {
		spec.SampleInterval = *sample
	}

	// -hot counts the run's protocol events in one more sink.
	var hotPages *trace.Counting
	if *hot {
		// -p 0 runs the harness default of 16 processors.
		hotPages = trace.NewCounting(cmp.Or(*np, 16))
		spec.TraceSink = trace.Tee(spec.TraceSink, hotPages)
	}

	// Trace-carrying specs (-trace, -sample, -hot) bypass the cache inside
	// Memo.Run; everything else goes through the memo so -store can answer
	// without simulating.
	memo, merr := campaign.OpenMemo(*storeDir)
	if merr != nil {
		fmt.Fprintln(stderr, "svmsim:", merr)
		return 1
	}
	if *jsonOut {
		// The canonical single-cell document, the exact bytes GET /run
		// serves; a failed cell (or baseline) is its structured error
		// document.
		body, _, code := server.CellBody(memo, spec, *speedup)
		closeTrace(chrome, stderr)
		stdout.Write(body)
		if code != http.StatusOK {
			fmt.Fprintf(stderr, "svmsim: %s/%s on %s failed (HTTP %d)\n", *app, *version, *plat, code)
			return 1
		}
		return 0
	}

	res, err := memo.Run(spec)
	closeTrace(chrome, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "svmsim:", err)
		return 1
	}

	var spFactor float64
	base := spec.Baseline()
	if *speedup {
		baseRun, err := memo.Run(base)
		if err != nil {
			fmt.Fprintln(stderr, "svmsim:", err)
			return 1
		}
		spFactor = float64(baseRun.EndTime) / float64(res.EndTime)
	}

	fmt.Fprint(stdout, res.BreakdownTable())
	if hotPages != nil {
		fmt.Fprint(stdout, hotPages.Report(10))
	}
	c := res.AggregateCounters()
	fmt.Fprintf(stdout, "counters: reads=%d writes=%d faults=%d fetches=%d twins=%d diffs=%d inval=%d locks=%d remote=%d bus=%d tasks=%d stolen=%d\n",
		c.Reads, c.Writes, c.PageFaults, c.PageFetches, c.TwinsMade, c.DiffsCreated,
		c.Invalidations, c.LockAcquires, c.RemoteMisses, c.BusTransactions, c.TasksRun, c.TasksStolen)
	if *traceOut != "" {
		fmt.Fprintf(stdout, "trace written to %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}

	if *speedup {
		fmt.Fprintf(stdout, "speedup vs uniprocessor %s/%s: %.2f\n", base.App, base.Version, spFactor)
	}
	return 0
}

// closeTrace flushes the Perfetto trace, if one is being written.
func closeTrace(chrome *trace.Chrome, stderr io.Writer) {
	if chrome == nil {
		return
	}
	if err := chrome.Close(); err != nil {
		fmt.Fprintln(stderr, "svmsim: writing trace:", err)
	}
}
