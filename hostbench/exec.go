package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// openSpans tracks the spans currently open per cell, so a call made
// further down the same cell (harness.Execute through the memo's Exec
// hook) can name its parent without the program passing anything along.
type openSpans struct {
	mu   sync.Mutex
	open map[string][]int
}

func (o *openSpans) push(key string, id int) {
	if id == 0 {
		return // untraced
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.open == nil {
		o.open = map[string][]int{}
	}
	o.open[key] = append(o.open[key], id)
}

func (o *openSpans) pop(key string, id int) {
	if id == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := o.open[key]
	for i := len(ids) - 1; i >= 0; i-- {
		if ids[i] == id {
			o.open[key] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(o.open[key]) == 0 {
		delete(o.open, key)
	}
}

// top returns the innermost open span of key, or 0.
func (o *openSpans) top(key string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ids := o.open[key]; len(ids) > 0 {
		return ids[len(ids)-1]
	}
	return 0
}

// execLog is installed as harness.Memo.Exec: it counts simulations per
// cell and, when traced, records a span around each.
type execLog struct {
	tr   *tracer
	open *openSpans

	mu   sync.Mutex
	runs map[string]int // memo key -> simulations
}

func newExecLog(tr *tracer, open *openSpans) *execLog {
	return &execLog{tr: tr, open: open, runs: map[string]int{}}
}

// hook returns the Exec function for a memo; scope prefixes the memo key
// when looking up the open parent span (the serving node's address, or ""
// for in-process workloads).
func (l *execLog) hook(scope string) func(harness.Spec) (*stats.Run, error) {
	return func(s harness.Spec) (*stats.Run, error) {
		key := s.MemoKey()
		id := l.tr.begin("harness.Execute", l.open.top(scope+key))
		run, err := harness.Execute(s)
		l.tr.end(id)
		l.mu.Lock()
		l.runs[key]++
		l.mu.Unlock()
		return run, err
	}
}

// executions returns the number of simulations and of distinct cells
// simulated.
func (l *execLog) executions() (sims, unique int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.runs {
		sims += n
	}
	return sims, len(l.runs)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
