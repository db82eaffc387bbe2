// Package parallel provides Run, the bounded fan-out behind index
// builds and the two read-path phases that split across segments:
// large id gathers and mixture transforms. Their results stay a pure
// function of (data, seed) at every worker count.
//
// Run never owns resident goroutines. Each call spawns its helpers for
// the duration of the loop and the calling goroutine always
// participates. Iterations are claimed from a shared counter, so their
// assignment to goroutines is racy by design: callers must arrange (and
// the index package's equivalence tests pin) that the work of each
// iteration is order-independent — disjoint writes, or commutative
// integer accumulation — so any worker count produces byte-identical
// results.
package parallel

import (
	"sync"
	"sync/atomic"
)

// Run runs fn(0), ..., fn(n-1), each exactly once, across at most
// workers goroutines, the caller included (workers <= 1 runs the loop
// inline). fn must produce results independent of which goroutine runs
// which iteration and in what order. Run returns after every iteration
// has completed.
func Run(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	for {
		i := int(next.Add(1))
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}
