package parexec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(0) .. fn(n-1) across up to runtime.GOMAXPROCS(0)
// goroutines and returns when all have completed. Items run in arbitrary
// order; callers index into preallocated result slices, which keeps
// output ordering deterministic regardless of scheduling. With one
// worker (or one item) the work runs inline on the caller's goroutine.
func Map(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
