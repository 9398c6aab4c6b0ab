// iter.Pull needs go1.23; go.mod stays at go 1.22 because the benchmark module pins it.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Context is a simulated sequential agent (a processor, a thread). Its body
// is an iter.Pull coroutine driven by the engine's dispatch loop: a due wake
// resumes the body through next, and the body runs until it parks in
// WaitUntil/Sleep/Block by yielding back to the loop. Only one of the loop
// and the bodies runs at a time, so no other context or event runs while a
// body does.
type Context struct {
	eng  *Engine
	name string
	// next resumes the body; yield (set when the body starts) parks it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	// gen counts resumptions; wake events capture the generation at which
	// they were armed so a stale wake (context already resumed by another
	// path) is dropped instead of resuming the context a second time.
	gen uint64
	// blocked is informational: true while parked with no wake event queued.
	blocked bool

	// BlockNote, when non-nil, observes every Block on this context: it is
	// called with the park time and the wake time once the context resumes.
	// The metrics layer hangs cycle attribution off it — why the context
	// woke is known to the caller that parked, so the caller tags the wait
	// and this hook supplies the measured duration. Nil costs one branch.
	BlockNote func(parked, woke Time)

	// Node identifies the processor this context models, for Chooser
	// descriptors; -1 (the default) means the context belongs to no
	// particular node and its wakes are opaque to partial-order reduction.
	Node int32
}

// Name returns the context's debug name.
func (c *Context) Name() string { return c.name }

// Engine returns the owning engine.
func (c *Context) Engine() *Engine { return c.eng }

// Now returns the current simulation time.
func (c *Context) Now() Time { return c.eng.now }

// Done reports whether the context body has returned.
func (c *Context) Done() bool { return c.done }

// Spawn creates a context whose body starts running at time `at`. The body
// executes in simulation order; fn returning ends the context.
func (e *Engine) Spawn(name string, at Time, fn func(*Context)) *Context {
	c := &Context{eng: e, name: name, Node: -1}
	e.nlive++
	e.ctxs = append(e.ctxs, c)
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			// A finished context can stay reachable (the core runtime
			// keeps every thread it started), so it must not pin its
			// coroutine's closures and captured state.
			c.next, c.yield = nil, nil
			c.done = true
			e.nlive--
			e.retire()
			// iter.Pull re-raises a body's panic from next, on the Run
			// goroutine; frame it with the context's name and stack first.
			if r := recover(); r != nil {
				panic(fmt.Sprintf("sim: context %s panicked: %v\n--- context stack ---\n%s", name, r, debug.Stack()))
			}
		}()
		fn(c)
	})
	e.atWake(at, c, 0)
	return c
}

// wakeAt arms a wake event at absolute time t for the current park
// generation; the event is dropped if the context was resumed through
// another path in the meantime (the staleness check lives in
// Engine.dispatch, which fires wake records without a closure).
func (c *Context) wakeAt(t Time) {
	c.eng.atWake(t, c, c.gen)
}

// WaitUntil advances the context to absolute time t, letting all events and
// other contexts scheduled before t run. Waiting for the past is a no-op
// time-wise but still interleaves fairly with same-time events: the wake
// record takes its place in (at, seq) order like any other.
func (c *Context) WaitUntil(t Time) {
	e := c.eng
	if t < e.now {
		t = e.now
	}
	// Arm the wake record inline (atWake unrolled) so the solo-wake check
	// below can compare the queue head against it by pointer.
	e.seq++
	r := e.q.get()
	r.at, r.seq, r.ctx, r.gen = t, e.seq, c, c.gen
	e.q.push(r)
	// Solo-wake fast path: if our own wake is the next due event and the
	// run's budget allows dispatching it now, consume it inline — advance
	// the clock and keep running without yielding to the loop. Dispatch
	// order is unchanged: the record was the exact next pop, so this is the
	// same transfer the loop would have performed, minus the park. Disabled
	// under a chooser: other events ready at the same cycle must be offered
	// as alternatives, so every dispatch has to go through the loop.
	if e.chooser == nil && !e.halted && !(e.budgeted && e.budget == 0) && e.q.peek() == r {
		if e.budgeted {
			e.budget--
		}
		e.q.next() // pops r: it is the head
		e.q.put(r)
		e.now = t
		c.gen++
		return
	}
	c.yield(struct{}{})
}

// Sleep advances the context by d cycles.
func (c *Context) Sleep(d uint64) { c.WaitUntil(c.eng.now + d) }

// Block parks the context indefinitely. Some other activity must call
// Unblock (directly or via a Gate) or the context never runs again; the
// engine detects total deadlock in Machine-level drivers by the event queue
// draining while contexts remain.
func (c *Context) Block() {
	c.blocked = true
	if c.BlockNote != nil {
		t0 := c.eng.now
		c.yield(struct{}{})
		c.BlockNote(t0, c.eng.now)
		return
	}
	c.yield(struct{}{})
}

// Unblock schedules the context to resume at the current time. It must be
// called from engine execution (an event callback or another context), never
// from outside a running simulation.
func (c *Context) Unblock() { c.UnblockAt(c.eng.now) }

// UnblockAt schedules the context to resume at absolute time t. A wake is
// dropped if the context resumed through another path first.
func (c *Context) UnblockAt(t Time) {
	if c.done {
		panic("sim: unblock of finished context " + c.name)
	}
	c.wakeAt(t)
}

// Gate is a one-shot wake-up list: contexts Wait on it, events Fire it.
// After firing, Wait returns immediately. Typical use: a cache-fill
// completion that several loads are stalled on.
//
// The common case is exactly one waiter (a processor stalled on its own
// miss), so the first waiter lives in an inline slot and the spill slice is
// touched only when a second context joins the same gate. A fired gate can
// be returned to service with Reset, which keeps the spill slice's capacity —
// pooled transaction records reuse their embedded gates allocation-free.
type Gate struct {
	fired   bool
	w0      *Context   // inline first waiter (nil when none)
	waiters []*Context // second and later waiters
}

// Fired reports whether the gate has fired.
func (g *Gate) Fired() bool { return g.fired }

// Wait parks the context until the gate fires (returns at the fire time).
func (g *Gate) Wait(c *Context) {
	if g.fired {
		return
	}
	if g.w0 == nil {
		g.w0 = c
	} else {
		g.waiters = append(g.waiters, c)
	}
	c.Block()
}

// Fire releases all waiters, in arrival order, at the current simulation
// time.
func (g *Gate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	if w := g.w0; w != nil {
		g.w0 = nil
		w.Unblock()
	}
	for i, w := range g.waiters {
		g.waiters[i] = nil // don't pin contexts from the retained array
		w.Unblock()
	}
	g.waiters = g.waiters[:0]
}

// Reset returns a fired (or idle, waiter-free) gate to the unfired state so
// it can be waited on again. Resetting a gate that still has parked waiters
// would strand them, so that panics.
func (g *Gate) Reset() {
	if g.w0 != nil || len(g.waiters) > 0 {
		panic("sim: reset of a gate with parked waiters")
	}
	g.fired = false
}

// Live returns the number of spawned contexts whose bodies have not
// returned. Useful for deadlock diagnostics.
func (e *Engine) Live() int { return e.nlive }

// retire is called by a finishing context, from its coroutine's defer.
// Pruning ctxs is amortized: once finished contexts make up half the slice,
// one O(len) compaction reclaims them, keeping ctxs within a constant factor
// of the live count instead of growing with every context ever spawned.
func (e *Engine) retire() {
	e.ndone++
	if e.ndone*2 >= len(e.ctxs) && len(e.ctxs) >= 16 {
		e.pruneCtxs()
	}
}

// pruneCtxs compacts ctxs down to the live contexts, nilling the tail so
// finished contexts are not pinned by the retained array.
func (e *Engine) pruneCtxs() {
	kept := e.ctxs[:0]
	for _, c := range e.ctxs {
		if !c.done {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(e.ctxs); i++ {
		e.ctxs[i] = nil
	}
	e.ctxs = kept
	e.ndone = 0
}

// Stuck lists the live contexts (name and state) — the ones a deadlock
// report should name. It also prunes finished contexts.
func (e *Engine) Stuck() []string {
	var out []string
	for _, c := range e.ctxs {
		if !c.done {
			out = append(out, c.String())
		}
	}
	e.pruneCtxs()
	return out
}

// String implements fmt.Stringer for debugging.
func (c *Context) String() string {
	state := "runnable"
	if c.done {
		state = "done"
	} else if c.blocked {
		state = "blocked"
	}
	return fmt.Sprintf("ctx(%s,%s)", c.name, state)
}
