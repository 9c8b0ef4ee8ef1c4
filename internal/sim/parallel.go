package sim

import (
	"context"
	"runtime"
	"sync"
)

// Pool configures RunParallelFunc.
type Pool struct {
	// Workers bounds how many simulations run concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int
	// OnDone, if set, is called as each run completes, with the index of
	// its config and its report. Calls are serialized by an internal
	// mutex but arrive in completion order, not config order.
	OnDone func(i int, rep *Report)
}

// RunParallelFunc executes n simulations on a bounded worker pool and
// returns the reports in job order. build(i) is called inside the worker
// that runs job i, so at most Workers simulations' worth of state
// (schemes, caches, generators) is live at once no matter how large the
// job set is; build must be a pure function of i. Each simulation owns all
// of its state, so runs never share mutable data and results are identical
// for any worker count. The first error cancels the remaining work and is
// returned.
func RunParallelFunc(ctx context.Context, n int, build func(i int) (Config, error), pool Pool) ([]*Report, error) {
	workers := pool.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	reports := make([]*Report, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cfg, err := build(i)
				if err != nil {
					fail(err)
					return
				}
				rep, err := RunContext(ctx, cfg)
				if err != nil {
					fail(err)
					return
				}
				reports[i] = rep
				if pool.OnDone != nil {
					mu.Lock()
					pool.OnDone(i, rep)
					mu.Unlock()
				}
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reports, nil
}
