package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// A finished body's coroutine parks on the engine's idle list and runs the
// next Spawn's body. These tests pin what recycling must not change (each
// spawn's own Context, stale-wake drops, panic framing) and what it adds
// (the one-allocation spawn, no goroutine outliving a run, Release).

// A spawn that reuses an idle coroutine allocates only its Context.
func TestRecycledSpawnAllocs(t *testing.T) {
	e := NewEngine()
	body := func(c *Context) {
		c.Sleep(1)
		c.Sleep(1)
	}
	var got float64
	e.Spawn("driver", 0, func(c *Context) {
		// One body finishes first, so a coroutine is idle when the
		// measured spawns start, and the event pool has grown.
		e.Spawn("warm", c.Now(), body)
		c.Sleep(5)
		got = testing.AllocsPerRun(100, func() {
			e.Spawn("life", c.Now(), body)
			c.Sleep(5)
		})
	})
	e.Run()
	if got != 1 {
		t.Fatalf("recycled spawn + two sleeps + finish = %v allocs, want 1 (the Context)", got)
	}
}

// A wake armed for a context is dropped once that context has finished,
// even though its coroutine now runs another context's body.
func TestStaleWakeAfterRecycleDropped(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", 0, func(c *Context) { c.Block() })
	var bWoke Time
	e.Spawn("driver", 0, func(c *Context) {
		c.Sleep(1)
		a.UnblockAt(10) // stale when it fires: the wake below resumes a first
		a.Unblock()
		c.Sleep(1)
		if !a.Done() || len(e.idle) != 1 {
			t.Fatalf("a done=%v with %d idle coroutines, want done with 1", a.Done(), len(e.idle))
		}
		b := e.Spawn("b", c.Now(), func(c *Context) {
			c.Block()
			bWoke = c.Now()
		})
		if len(e.idle) != 0 {
			t.Fatal("b did not take a's idle coroutine")
		}
		c.Sleep(30)
		b.Unblock()
	})
	e.Run()
	if bWoke != 32 {
		t.Fatalf("b woke at %d, want 32: the stale wake at 10 resumed it", bWoke)
	}
}

// A panic in a recycled coroutine names the context whose body panicked,
// and the coroutine is not reused: no goroutine survives the run.
func TestPanicInRecycledCoroutineNamesContext(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("first", 0, func(c *Context) {})
	e.At(5, func() {
		if len(e.idle) != 1 {
			t.Errorf("%d idle coroutines at the second spawn, want 1", len(e.idle))
		}
		e.Spawn("second", 5, func(c *Context) { panic("boom") })
	})
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Run()
	}()
	if !strings.HasPrefix(msg, "sim: context second panicked: boom") {
		t.Fatalf("panic = %q, want it to name the context second", firstLine(msg))
	}
	if len(e.idle) != 0 {
		t.Fatal("a panicked coroutine went back on the idle list")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panicked run, %d before", n, base)
	}
}

// Run stops the idle coroutines when it returns.
func TestRunStopsIdleCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Spawn("short", Time(i), func(c *Context) { c.Sleep(3) })
	}
	e.Run()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the run, %d before", n, base)
	}
}

// Release ends the contexts a halted run left parked, started or not: their
// bodies unwind without simulating further, their goroutines exit, and
// their pending wakes are dropped.
func TestReleaseEndsParkedContexts(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	unwound := 0
	for i := 0; i < 4; i++ {
		e.Spawn("parked", 0, func(c *Context) {
			defer func() { unwound++ }()
			c.Block()
		})
	}
	e.Spawn("sleeper", 0, func(c *Context) {
		c.Sleep(100)
		t.Error("sleeper ran past the halt")
	})
	e.Spawn("unstarted", 50, func(c *Context) { t.Error("unstarted body ran") })
	e.At(10, e.Halt)
	e.Run()
	if runtime.NumGoroutine() <= base {
		t.Fatal("no parked coroutines to release")
	}
	e.Release()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Release, %d before", n, base)
	}
	if e.Live() != 0 || unwound != 4 || len(e.Stuck()) != 0 {
		t.Fatalf("after Release: live %d, unwound %d, stuck %v", e.Live(), unwound, e.Stuck())
	}
	e.Run() // the released contexts' wakes at 50 and 100 are dropped
	if e.Now() != 100 {
		t.Fatalf("queue drained at %d, want 100", e.Now())
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
