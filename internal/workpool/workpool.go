// Package workpool is the pipeline's one bounded fan-out loop: the front
// end, reparse, semantics, the checker function queue and refsim replay all
// run their independent items through Run.
package workpool

import (
	"context"
	"runtime"
	"sync"
)

// Run calls fn(i) for each i in [0, n) on at most workers goroutines and
// returns how many items it fed. workers <= 0 means GOMAXPROCS; with one
// worker or at most one item, fn runs on the caller's goroutine. Items are
// fed in index order over an unbuffered channel, and feeding stops once ctx
// is done: Run then returns after the items already fed finish, and the
// unfed ones never run. fn must be safe to call concurrently on distinct
// indices.
func Run(ctx context.Context, workers, n int, fn func(i int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			fn(i)
		}
		return n
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	fed := 0
feed:
	for ; fed < n; fed++ {
		select {
		case jobs <- fed:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return fed
}
