package sim

import "testing"

// These benchmarks cover the engine's three hot paths — scheduling, event
// churn at a standing queue depth, and context switching — and are the
// before/after evidence for the pooled ladder queue (EXPERIMENTS.md §perf).
// Run with -benchmem: steady-state scheduling must be 0 allocs/op.

// BenchmarkSchedule measures one push+pop round trip: schedule an event one
// cycle ahead, drain it. This is the minimal At/Run cycle every simulated
// latency pays.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, nop)
		e.Run()
	}
}

// armChurn arms a standing population of 512 self-rescheduling timers at
// mixed periods, the shape of a busy machine simulation (cache fills,
// network hops, handler timers in flight). Between them they fire total
// times (at least once each), then the queue drains.
func armChurn(e *Engine, total int) {
	const standing = 512
	periods := [...]uint64{1, 2, 3, 5, 7, 11, 13, 1024}
	remaining := total
	for i := 0; i < standing; i++ {
		d := periods[i%len(periods)]
		var fn func()
		fn = func() {
			// Once fewer fires remain than timers, each timer's next
			// fire is its last.
			if remaining--; remaining >= standing {
				e.After(d, fn)
			}
		}
		e.After(d, fn)
	}
}

// BenchmarkRunChurn measures event execution at a standing queue depth of
// 512 timers.
func BenchmarkRunChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	armChurn(e, b.N)
	b.ResetTimer()
	e.Run()
}

// BenchmarkContextSwitch measures a full context round trip: wake event,
// Sleep re-arm, and resumption (the solo-wake fast path, since the context
// is alone in the queue).
func BenchmarkContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("bench", 0, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleFar measures scheduling beyond the ladder's near window
// (far-future timers take the overflow tier) so both tiers stay honest.
func BenchmarkScheduleFar(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+100_000, nop)
		e.Run()
	}
}

// BenchmarkContextPingPong measures a context-to-context transfer: two
// contexts whose sleeps interleave, so every switch yields one coroutine
// back to the dispatch loop and resumes the other.
func BenchmarkContextPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	body := func(c *Context) {
		for i := 0; i < b.N/2; i++ {
			c.Sleep(2)
		}
	}
	e.Spawn("ping", 0, body)
	e.Spawn("pong", 1, body)
	b.ResetTimer()
	e.Run()
}

// A warmed engine allocates nothing per event or per context switch: the
// allocations per run (the churn closures; one context's spawn) are the
// same at 20k and 80k operations.
func TestHotPathAllocsFlat(t *testing.T) {
	e := NewEngine()
	workloads := []struct {
		name string
		run  func(n int)
	}{
		{"run-churn", func(n int) {
			armChurn(e, n)
			e.Run()
		}},
		{"context-switch", func(n int) {
			e.Spawn("switch", e.Now(), func(c *Context) {
				for i := 0; i < n; i++ {
					c.Sleep(1)
				}
			})
			e.Run()
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			short := testing.AllocsPerRun(5, func() { w.run(20_000) })
			long := testing.AllocsPerRun(5, func() { w.run(80_000) })
			if short != long {
				t.Fatalf("allocs per run grow with run length: %v at 20k ops, %v at 80k", short, long)
			}
		})
	}
}
