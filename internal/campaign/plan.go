package campaign

import (
	"context"
	"runtime"
	"sync"
)

// LaunchWorkers returns the per-launch work-group fan-out budget for a
// pipeline stage that runs `width` launches concurrently: the machine's
// parallelism left over once case-level fan-out has claimed its workers.
// A saturated stage (width >= GOMAXPROCS) yields 1 — groups run serially
// — while a narrow stage (a single differential test, a small acceptance
// batch) hands the idle cores to the executor. Both levels multiply to
// at most GOMAXPROCS, so campaign-level and group-level parallelism
// never oversubscribe the machine.
func LaunchWorkers(width int) int {
	w := runtime.GOMAXPROCS(0)
	if width < 1 {
		width = 1
	}
	per := w / width
	if per < 1 {
		per = 1
	}
	return per
}

// stageWorkers returns the fan-out for a stage of n items nested under a
// caller already running `width` stages concurrently: the leftover
// parallelism, clamped to the item count (minimum 1).
func stageWorkers(width, n int) int {
	per := LaunchWorkers(width)
	if per > n {
		per = n
	}
	if per < 1 {
		per = 1
	}
	return per
}

// Stream is the campaign pipeline: it runs work(i) for i in 0..n-1
// across a bounded worker pool and delivers every result to sink in
// index order — the deterministic ordered merge that keeps streaming
// campaign output byte-identical to a serial loop. work receives the
// stage's per-launch work-group budget (LaunchWorkers of the actual
// fan-out). sink runs on the calling goroutine; the queue between the
// workers and the merge is bounded, so a slow sink backpressures the
// workers instead of buffering the whole campaign.
//
// Cancelling ctx stops the dispatch of new case indices; cases already
// in flight run to completion and still reach the sink, so a cancelled
// stream delivers a contiguous, exactly-once prefix of the case list —
// the invariant the shard resume path depends on. A nil ctx streams to
// completion.
func Stream[R any](ctx context.Context, n int, work func(i, launch int) R, sink func(i int, r R)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	launch := LaunchWorkers(workers)
	streamWith(ctx, workers, n, func(i int) R { return work(i, launch) }, sink)
}

// streamWith is Stream with an explicit worker count (RunMatrix budgets
// its representative stage against the caller's width).
func streamWith[R any](ctx context.Context, workers, n int, work func(i int) R, sink func(i int, r R)) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			sink(i, work(i))
		}
		return
	}
	type item struct {
		i int
		r R
	}
	jobs := make(chan int)
	// The done queue is bounded by the worker count: a finished worker
	// blocks until the merge drains, bounding the reorder window (and so
	// memory) to O(workers) regardless of campaign size.
	done := make(chan item, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				done <- item{i, work(i)}
			}
		}()
	}
	go func() {
	dispatch:
		for i := 0; i < n; i++ {
			// select picks at random among ready cases, so an idle
			// worker could still win against an already-cancelled
			// context; check first so a fired cancellation hands out
			// nothing more.
			if ctx.Err() != nil {
				break
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Stop handing out new cases; the workers drain what was
				// already dispatched, so the merge still emits a clean,
				// in-order prefix before the stream returns.
				break dispatch
			}
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()
	// Ordered merge: results arrive out of order; emit them to the sink
	// strictly by index. Because jobs dispatch in order, at most
	// 2×workers results can be pending ahead of the next index.
	pending := make(map[int]R, workers)
	next := 0
	for it := range done {
		pending[it.i] = it.r
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			sink(next, r)
			next++
		}
	}
}
