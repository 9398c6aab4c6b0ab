package sim

import (
	"fmt"
	"strings"
	"testing"
)

// Contexts are coroutines resumed by one dispatch loop on the Run goroutine.
// These tests pin the behaviors any context scheduler must keep: panic
// propagation to the Run caller with the right culprit, run bounds and
// budgets applied on every dispatch (including the solo-wake fast path), the
// amortized pruning of the finished-context roster, and the per-context
// allocation cost.

func TestContextPanicPropagatesToRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bystander", 0, func(c *Context) { c.Block() })
	e.Spawn("bomb", 0, func(c *Context) {
		c.Sleep(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("context panic did not reach Run")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "context bomb panicked: boom") {
			t.Fatalf("panic payload %v, want context bomb framing", r)
		}
		if !strings.Contains(msg, "context stack") {
			t.Fatalf("panic missing context stack: %v", r)
		}
	}()
	e.Run()
}

// A context woken by another context (not by a callback) panicking must
// still re-raise from Run, framed with the victim's name.
func TestPanicAfterContextToContextHandoff(t *testing.T) {
	e := NewEngine()
	var target *Context
	target = e.Spawn("victim", 0, func(c *Context) {
		c.Block()
		panic("woken then boom")
	})
	e.Spawn("waker", 0, func(c *Context) {
		c.Sleep(3)
		target.Unblock()
		// Finishing here makes this goroutine dispatch victim's wake.
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "victim panicked") {
			t.Fatalf("panic = %v, want victim framing", r)
		}
	}()
	e.Run()
}

// A callback that panics after a context finished must re-raise from Run,
// not crash the process from another goroutine.
func TestCallbackPanicOnFinishingContext(t *testing.T) {
	e := NewEngine()
	e.Spawn("finisher", 0, func(c *Context) { c.Sleep(1) })
	e.At(5, func() { panic("event boom") })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "event boom") {
			t.Fatalf("panic = %v, want event boom", r)
		}
	}()
	e.Run()
}

// A callback that panics while a context is parked must not be blamed on
// that context, nor finish it: the panic is the callback's, and the context
// resumes when the recovered engine runs again.
func TestCallbackPanicDoesNotBlameParkedContext(t *testing.T) {
	e := NewEngine()
	finished := false
	e.Spawn("sleeper", 0, func(c *Context) {
		c.WaitUntil(10)
		finished = true
	})
	e.At(5, func() { panic("event boom") })
	func() {
		defer func() {
			r := recover()
			msg := fmt.Sprint(r)
			if r == nil || !strings.Contains(msg, "event boom") {
				t.Fatalf("panic = %v, want event boom", r)
			}
			if strings.Contains(msg, "context sleeper panicked") {
				t.Fatalf("callback panic blamed on the parked context: %v", r)
			}
		}()
		e.Run()
	}()
	e.Run()
	if !finished || e.Now() != 10 || e.Live() != 0 {
		t.Fatalf("sleeper finished=%v at %d with %d live, want resumed and finished at 10", finished, e.Now(), e.Live())
	}
}

// After a panic aborted a run, the engine must reject reuse... it does not:
// it remains resumable like after Halt. What must hold is that the recorded
// panic does not leak into the next run.
func TestPanicDoesNotLeakIntoNextRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", 0, func(c *Context) { panic("once") })
	func() {
		defer func() { recover() }()
		e.Run()
	}()
	ran := false
	e.At(e.Now()+1, func() { ran = true })
	e.Run() // must not re-raise
	if !ran {
		t.Fatal("engine dead after recovered panic")
	}
}

// RunLimit's event budget must count wakes consumed by the solo fast path,
// or a compute loop would run unbounded inside a bounded fuzzer step.
func TestRunLimitCountsSoloWakes(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("solo", 0, func(c *Context) {
		for i := 0; i < 10; i++ {
			c.Sleep(1)
			steps++
		}
	})
	// Budget 5: the spawn wake plus four solo-consumed sleep wakes.
	if e.RunLimit(5) {
		t.Fatal("RunLimit reported drained with work remaining")
	}
	if steps >= 10 {
		t.Fatalf("budget did not bound the solo fast path: %d steps", steps)
	}
	mid := steps
	if !e.RunLimit(1000) {
		t.Fatal("second RunLimit did not drain")
	}
	if steps != 10 || steps == mid {
		t.Fatalf("resume broken: %d steps (was %d)", steps, mid)
	}
}

// An event scheduled for the same cycle before a context sleeps must win the
// (at, seq) race over the later-armed wake, forcing the slow path: the solo
// shortcut may only fire when the wake is the true queue head.
func TestSoloFastPathYieldsToSameTimeEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("ctx", 0, func(c *Context) {
		e.At(c.Now()+1, func() { order = append(order, "event") })
		c.Sleep(1)
		order = append(order, "ctx")
	})
	e.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "ctx" {
		t.Fatalf("order %v, want [event ctx]", order)
	}
}

// Finished contexts must be pruned from the diagnostics roster as the run
// proceeds, not only when Stuck happens to be called: a long run spawning
// short-lived contexts keeps the roster proportional to the live count.
func TestFinishedContextsPruned(t *testing.T) {
	e := NewEngine()
	const spawns = 10_000
	e.Spawn("driver", 0, func(c *Context) {
		for i := 0; i < spawns; i++ {
			e.Spawn("worker", c.Now(), func(w *Context) { w.Sleep(1) })
			c.Sleep(2)
		}
	})
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("%d contexts still live", e.Live())
	}
	if n := len(e.ctxs); n > 64 {
		t.Fatalf("ctxs roster grew to %d entries after %d spawn/finish cycles, want bounded", n, spawns)
	}
}

// Stuck must still report live contexts correctly after amortized pruning
// has compacted the roster mid-run.
func TestStuckAfterPruning(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.Spawn("short", 0, func(c *Context) { c.Sleep(1) })
	}
	e.Spawn("parked", 0, func(c *Context) { c.Block() })
	e.Run()
	stuck := e.Stuck()
	if len(stuck) != 1 || stuck[0] != "ctx(parked,blocked)" {
		t.Fatalf("stuck = %v, want the one parked context", stuck)
	}
}

// A context blocked with BlockNote must report the park and wake times even
// when another context wakes it.
func TestBlockNoteAcrossHandoff(t *testing.T) {
	e := NewEngine()
	var parked, woke Time
	var target *Context
	target = e.Spawn("noted", 0, func(c *Context) {
		c.BlockNote = func(p, w Time) { parked, woke = p, w }
		c.Sleep(5)
		c.Block()
	})
	e.Spawn("waker", 0, func(c *Context) {
		c.Sleep(30)
		target.Unblock()
	})
	e.Run()
	if parked != 5 || woke != 30 {
		t.Fatalf("BlockNote(%d, %d), want (5, 30)", parked, woke)
	}
}

// The context lifecycle — spawn, two sleeps, finish — allocates a fixed
// number of objects: the Context, its coroutine's closures and captured
// variables. A change that adds per-spawn allocations fails here.
func TestContextLifecycleAllocs(t *testing.T) {
	e := NewEngine()
	body := func(c *Context) {
		c.Sleep(1)
		c.Sleep(1)
	}
	// Warm the event pool so the measured runs reuse its records.
	e.Spawn("warm", e.Now(), body)
	e.Run()
	const want = 13
	got := testing.AllocsPerRun(100, func() {
		e.Spawn("life", e.Now(), body)
		e.Run()
	})
	if got > want {
		t.Fatalf("spawn + two sleeps + finish = %v allocs, want <= %d", got, want)
	}
}
