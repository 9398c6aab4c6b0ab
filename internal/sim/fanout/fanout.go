// Package fanout runs independent simulations in parallel.
//
// A sim.Engine is confined to the goroutine that drives it and shares no
// state with other engines (package sim's confinement rule), so fully
// self-contained runs — stress seeds, bench experiments, sweep points — are
// embarrassingly parallel. This package is the one place that exploits
// that: a bounded worker pool executes jobs concurrently while results are
// collected by index, so output order (and therefore every determinism
// golden) is identical to a serial run.
//
// Jobs must not touch shared mutable state; everything they need is reached
// through their index, and everything they produce is returned. Workers
// communicate only via the index channel and the results slice (disjoint
// per-index writes joined by a WaitGroup), which keeps the harness clean
// under the race detector.
package fanout

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// Workers clamps a requested parallelism degree to [1, GOMAXPROCS]. Zero or
// negative means "use every core".
func Workers(n int) int {
	max := runtime.GOMAXPROCS(0)
	if n <= 0 || n > max {
		return max
	}
	return n
}

// WarnIfSerial warns on w when parallelism was requested (requested != 1:
// explicit fan-out or 0 = all cores) but GOMAXPROCS is 1, so the workers
// degenerate to a serial run and any serial-vs-parallel comparison is
// meaningless. Reports whether it warned. Callers that default to a serial
// run (requested == 1) stay silent: the user asked for nothing parallel.
func WarnIfSerial(w io.Writer, requested int) bool {
	if requested == 1 || runtime.GOMAXPROCS(0) > 1 {
		return false
	}
	fmt.Fprintln(w, "warning: GOMAXPROCS=1 — parallel workers degenerate to a serial run on this host")
	return true
}

// Run executes job(0..n-1) on at most workers goroutines and returns the
// results in job-index order, exactly as a serial loop would have produced
// them. workers <= 1 degenerates to an inline serial loop (no goroutines),
// which keeps single-threaded traces easy to debug.
func Run[T any](n, workers int, job func(i int) T) []T {
	results := make([]T, n)
	if n == 0 {
		return results
	}
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			results[i] = job(i)
		}
		return results
	}
	// Worker w starts on job w before it takes jobs from the channel, so
	// the first jobs always run on distinct goroutines, however short they
	// are: the race detector then sees sibling jobs run concurrently, which
	// is what holds the confinement rule.
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//alewife:allow determinism worker pool is the one sanctioned spawn site: jobs share nothing and results land at distinct indices
		go func() {
			defer wg.Done()
			results[w] = job(w)
			for i := range idx {
				results[i] = job(i)
			}
		}()
	}
	for i := workers; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}
