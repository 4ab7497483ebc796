package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The benchmark folds a CPU profile into the repository's layers: each
// sample goes to the layer of the innermost repro/internal frame on its
// stack, and samples with no such frame go to "runtime". The kernel runs
// simulated processors as iter.Pull coroutines, so a coroutine switch
// found before any repository frame counts as "sim".

// layers lists every layer a sample can fold into, in report order.
var layers = []string{"apps", "sim", "protocol", "cache", "trace", "harness", "server", "cluster", "store", "runtime"}

// packageLayer maps repro/internal packages to layers. A package not
// listed counts as harness, the experiment plumbing, until it is given a
// layer here.
var packageLayer = map[string]string{
	"apps": "apps", "sim": "sim", "cache": "cache", "trace": "trace",
	"protocol": "protocol", "svm": "protocol", "svmsmp": "protocol", "smp": "protocol",
	"dsm": "protocol", "platform": "protocol", "mem": "protocol",
	"harness": "harness", "core": "harness", "stats": "harness", "check": "harness", "campaign": "harness",
	"server": "server", "cluster": "cluster", "store": "store",
}

const repoPrefix = "repro/internal/"

// layerOf returns the layer of one sample, given its function names
// innermost first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "iter.Pull") || strings.HasPrefix(f, "runtime.coroswitch") {
			return "sim"
		}
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "/."); i >= 0 {
				pkg = pkg[:i]
			}
			if l, ok := packageLayer[pkg]; ok {
				return l
			}
			return "harness"
		}
	}
	return "runtime"
}

// foldProfile folds a pprof CPU profile and returns the CPU nanoseconds of
// each layer. It reads the samples through `go tool pprof -traces`, which
// prints each sample's CPU time and stack, innermost frame first.
func foldProfile(prof []byte) (map[string]int64, error) {
	f, err := os.CreateTemp("", "hostbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", f.Name())
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return foldTraces(string(out))
}

// traceSeparator opens each sample in `go tool pprof -traces` output.
const traceSeparator = "-----------+"

// foldTraces folds the text `go tool pprof -traces` prints: a header, then
// one block per sample, each opened by a separator line. A block's first
// line is the sample's CPU time and innermost frame; each further line is
// one caller. Inlined frames are marked " (inline)".
func foldTraces(text string) (map[string]int64, error) {
	out := map[string]int64{}
	blocks := strings.Split(text, traceSeparator)
	for _, b := range blocks[1:] {
		lines := strings.Split(b, "\n")[1:] // [0] is the rest of the separator line
		var ns int64
		var frames []string
		for _, l := range lines {
			l = strings.TrimSuffix(strings.TrimSpace(l), " (inline)")
			if l == "" {
				continue
			}
			if frames == nil {
				// Function names can hold spaces (iter.Pull[go.shape.struct {}]),
				// so only the first field is the value.
				value, frame, _ := strings.Cut(l, " ")
				d, err := time.ParseDuration(value)
				if err != nil {
					return nil, fmt.Errorf("pprof traces: bad sample line %q", l)
				}
				ns, l = d.Nanoseconds(), strings.TrimSpace(frame)
			}
			frames = append(frames, l)
		}
		if frames != nil {
			out[layerOf(frames)] += ns
		}
	}
	return out, nil
}
