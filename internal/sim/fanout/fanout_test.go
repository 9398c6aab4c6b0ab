package fanout

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunOrderMatchesSerial(t *testing.T) {
	job := func(i int) int { return i * i }
	serial := Run(100, 1, job)
	for _, w := range []int{2, 3, 8, 64} {
		par := Run(100, w, job)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: result[%d]=%d, want %d", w, i, par[i], serial[i])
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if got := Run(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("empty run returned %v", got)
	}
}

func TestRunEachJobOnce(t *testing.T) {
	var calls [257]int32
	Run(len(calls), 7, func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, max}, {-3, max}, {1, 1}, {max + 100, max},
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// withProcs raises GOMAXPROCS so the worker-pool path is reachable even on
// a single-CPU machine (Workers clamps to GOMAXPROCS, so without this every
// call degenerates to the serial loop).
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestRunWorkerPoolMatchesSerial(t *testing.T) {
	withProcs(t, 4)
	job := func(i int) int { return 3*i + 1 }
	serial := Run(50, 1, job)
	par := Run(50, 4, job)
	for i := range serial {
		if par[i] != serial[i] {
			t.Fatalf("result[%d]=%d, want %d", i, par[i], serial[i])
		}
	}
}

func TestRunClampsWorkersToJobs(t *testing.T) {
	withProcs(t, 8)
	// More workers than jobs: the pool must shrink to n, not deadlock or
	// leave idle feeders.
	got := Run(3, 8, func(i int) int { return i + 1 })
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("results = %v", got)
	}
}

func TestRunWorkerPoolEachJobOnce(t *testing.T) {
	withProcs(t, 4)
	var calls [257]int32
	Run(len(calls), 4, func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >1 CPU to observe concurrency")
	}
	var cur, peak int32
	Run(64, 2, func(i int) struct{} {
		n := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		atomic.AddInt32(&cur, -1)
		return struct{}{}
	})
	if peak > 2 {
		t.Fatalf("peak concurrency %d with 2 workers", peak)
	}
}

// Sibling jobs run on distinct goroutines however short they are, so the
// race detector sees them run concurrently: two trivial jobs that each
// touched one shared engine once passed -race when one worker ran both.
func TestRunTrivialJobsOnDistinctGoroutines(t *testing.T) {
	withProcs(t, 2)
	for rep := 0; rep < 100; rep++ {
		ids := Run(2, 2, func(int) string { return goroutineID() })
		if ids[0] == ids[1] {
			t.Fatalf("rep %d: both jobs ran on goroutine %s", rep, ids[0])
		}
	}
}

// goroutineID returns the calling goroutine's number from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(f[1])
}
