// Command hostbench is the repository's end-to-end benchmark: it measures
// the host cost of the simulator and of its serving fleet on three
// workloads, checks every simulated result against the committed campaign
// journals, and prints each metric with its unit. See README.md.
//
//	hostbench --workload svm-scaling|irregular-hw|serve-fleet --seed N --seconds S --trace 0|1 [--out DIR]
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from a separate run that records spans, counts
// trace events and takes a CPU profile. The command exits 1 if any result
// differs from the committed reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	_ "repro/internal/apps"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the traced run's spans and profile; "" writes none
}

// metric is one reported number; n is its sample count (0 when it is a
// single measurement).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is the outcome of one benchmark run.
type result struct {
	attempted, failed int
	errs              []string // failure messages, for the log
	broken            []string // violated run invariants; any makes the run incorrect
	metrics           []metric
	notes             []metric // printed for people, left out of the JSON line
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) note(name string, value float64, unit string, n int) {
	r.notes = append(r.notes, metric{name, value, unit, n})
}

func (r *result) fail(msg string) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, msg)
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.broken) == 0 }

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"svm-scaling":  svmScaling.run,
	"irregular-hw": irregularHW.run,
	"serve-fleet":  runServeFleet,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: svm-scaling, irregular-hw or serve-fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for dispatch order (simulation workloads) or request sequence (serve-fleet)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.out, "out", "", "directory to write the traced run's spans and CPU profile to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "hostbench: need --workload svm-scaling|irregular-hw|serve-fleet, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o.trace = traceFlag == 1
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o777); err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "hostbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, traceFlag)
	fmt.Fprintf(stdout, "host %s\n", hostInfo())
	res, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	printResult(stdout, res)
	if !res.correct() {
		for _, e := range res.errs {
			fmt.Fprintf(stderr, "hostbench: failed: %s\n", e)
		}
		for _, b := range res.broken {
			fmt.Fprintf(stderr, "hostbench: invariant: %s\n", b)
		}
		return 1
	}
	return 0
}

// printResult writes one line per metric, then the JSON result line.
func printResult(w io.Writer, r *result) {
	for _, m := range append(r.metrics, r.notes...) {
		line := fmt.Sprintf("%-34s %14.6g %s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-34s %14.6g frac  (%d/%d)\n", "fail_frac", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(line))
}

// hostInfo describes the machine and build, so no comparison mixes hosts.
func hostInfo() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		if slices.Contains(bi.Settings, debug.BuildSetting{Key: "vcs.modified", Value: "true"}) {
			commit += "+dirty"
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// workers is the pool size: at most one per CPU.
func workers() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// processCPU returns the CPU time of every thread of the process so far.
// The kernel leaves out time the hypervisor stole from the VM, which on a
// shared host swings wall-clock time by tens of percent between runs.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU returns the CPU time of the calling OS thread; the caller must
// hold runtime.LockOSThread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// stolenWall returns the time the hypervisor has stolen from this VM so
// far, as wall time: the steal column of the aggregate cpu line of
// /proc/stat (in USER_HZ ticks, 100 per second on Linux) divided by the
// number of CPUs. It reads 0 where /proc/stat has no steal column.
func stolenWall() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal uint64
	cpus := 0
	for _, l := range strings.Split(string(data), "\n") {
		f := strings.Fields(l)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			steal, _ = strconv.ParseUint(f[8], 10, 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(steal) * 10 * time.Millisecond / time.Duration(cpus)
}

// clocks is a reading of the wall, process CPU and stolen clocks.
type clocks struct {
	wall       time.Time
	cpu, steal time.Duration
}

func readClocks() clocks { return clocks{time.Now(), processCPU(), stolenWall()} }

// window is what the clocks advanced between two readings.
type window struct{ wall, cpu, steal time.Duration }

func (c clocks) since() window {
	return window{time.Since(c.wall), processCPU() - c.cpu, stolenWall() - c.steal}
}

func (w *window) add(o window) { w.wall, w.cpu, w.steal = w.wall+o.wall, w.cpu+o.cpu, w.steal+o.steal }

// ownWall is the wall time of the window less what the hypervisor stole:
// it still counts time the process spent waiting on locks, channels or
// I/O, which the CPU clocks leave out.
func (w window) ownWall() time.Duration {
	if w.steal <= 0 || w.steal >= w.wall {
		return w.wall
	}
	return w.wall - w.steal
}

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID, which count
// in nanoseconds (getrusage counts threads in scheduler ticks).
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// setupReps is how many times a workload repeats its set-up, which takes
// milliseconds; setup_s is the median.
const setupReps = 21

// setupTimes are the median CPU and wall seconds of one set-up.
type setupTimes struct{ cpu, wall float64 }

// timeSetup runs set-up reps times, tearing down all but the last state,
// and returns the last state and the set-up times.
func timeSetup[T any](reps int, setup func() (T, error), teardown func(T)) (last T, times setupTimes, err error) {
	var cpu, wall []float64
	for i := 0; i < reps; i++ {
		start := readClocks()
		st, err := setup()
		if err != nil {
			return last, times, err
		}
		w := start.since()
		cpu = append(cpu, w.cpu.Seconds())
		wall = append(wall, w.wall.Seconds())
		if i > 0 && teardown != nil {
			teardown(last)
		}
		last = st
	}
	return last, setupTimes{median(cpu), median(wall)}, nil
}
