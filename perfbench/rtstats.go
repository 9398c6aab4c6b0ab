package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Go runtime counters read around the traced passes (runtime/metrics).
const (
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mSchedLat   = "/sched/latencies:seconds"
	mStacks     = "/memory/classes/heap/stacks:bytes"
)

// rtSnapshot is one reading of the runtime counters.
type rtSnapshot struct {
	gcCycles, allocBytes, allocObjs uint64
	gcCPU                           float64
	schedCounts                     []uint64
	schedBuckets                    []float64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mAllocBytes},
		{Name: mAllocObjs}, {Name: mSchedLat}}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return rtSnapshot{
		gcCycles:     s[0].Value.Uint64(),
		gcCPU:        s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjs:    s[3].Value.Uint64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// schedQuantile returns quantile q (0..1) in microseconds of the
// runnable-to-running waits recorded between two snapshots: the upper
// edge of the histogram bucket holding it (its lower edge for the open
// last bucket).
func schedQuantile(a, b rtSnapshot, q float64) float64 {
	var total uint64
	d := make([]uint64, len(b.schedCounts))
	for i := range d {
		d[i] = b.schedCounts[i] - a.schedCounts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= rank {
			edge := b.schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.schedBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// stackSampler tracks the high-water mark of goroutine stack memory,
// which runtime/metrics reports only as a current value.
type stackSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startStackSampler(every time.Duration) *stackSampler {
	s := &stackSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []metrics.Sample{{Name: mStacks}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			s.peak = max(s.peak, sample[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the peak in bytes.
func (s *stackSampler) finish() uint64 {
	close(s.stop)
	s.wg.Wait()
	return s.peak
}
