package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// ForEach calls fn(i) for every i in [0, n) from a pool of at most workers
// goroutines (GOMAXPROCS when workers <= 0, never more than n). Indices are
// handed out in ascending order; once ctx is done no further index is
// handed out, and ForEach returns after the calls already started finish.
// It is the one worker pool over cells: figure prefetch, local campaign
// execution, fleet batches and the POST /run handler all run through it.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Specs returns the cells render reads, in first-request order: it renders
// once against a fresh memo whose Exec records each spec and answers with a
// placeholder run. No renderer chooses cells from results, so the recorded
// list is exactly the set a real render of this runner reads, uniprocessor
// baselines included.
func (r *Runner) Specs(render func(*Runner) (string, error)) []Spec {
	var specs []Spec
	rec := *r
	rec.memo = NewMemo(nil)
	rec.memo.Exec = func(s Spec) (*stats.Run, error) {
		specs = append(specs, s)
		return &stats.Run{EndTime: 1}, nil
	}
	_, _ = render(&rec)
	return specs
}

// Render pre-executes every cell render reads through this runner's memo on
// at most workers concurrent simulations (GOMAXPROCS when workers <= 0),
// then renders serially from the warm memo. Each simulation is
// single-threaded by design, so the pool is what turns idle host cores
// into figure throughput, and the rendered bytes do not depend on workers.
// Shared baselines execute once (the memo's singleflight); failures are
// memoized and surface as error rows in the render and in FailedCells.
func (r *Runner) Render(workers int, render func(*Runner) (string, error)) (string, error) {
	specs := r.Specs(render)
	ForEach(context.Background(), workers, len(specs), func(i int) {
		_, _ = r.memo.Run(specs[i])
	})
	return render(r)
}
