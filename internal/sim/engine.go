// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns virtual time. Work is expressed either as plain callback
// events (Engine.At / Engine.After) or as coroutine contexts (Engine.Spawn)
// that model sequential agents such as processors. At any instant exactly one
// logical activity runs — one event callback or one context — so simulation
// state never needs locking and runs are fully deterministic: events at equal
// times fire in scheduling order.
//
// Control transfer is one dispatch loop on the goroutine that called Run.
// The loop pops the next due event, runs callbacks and sinks inline, and
// resumes a woken context by calling its iter.Pull coroutine's next; the
// context runs until it parks, yielding back to the loop. A context whose
// own wake is the next due event consumes it inline without yielding (the
// solo-wake fast path in WaitUntil). The loop returns to the Run caller when
// a stop condition is reached: queue drained, Halt or a RunLimit budget.
//
// Scheduling is a pooled two-level ladder queue (see ladder.go): typed event
// records from a free list, time-indexed buckets for the near future, a
// sorted overflow tier for far-future timers. Steady-state scheduling is
// allocation-free. One engine belongs to one driving goroutine (the one that
// calls Run); context bodies run as coroutines of that goroutine, never in
// parallel with it, so engine state needs no locks. Independent
// engines driven from separate goroutines share nothing, which is the
// confinement rule the fanout package's parallel harness relies on.
package sim

import "fmt"

// Time is the simulation clock in processor cycles.
type Time = uint64

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now    Time
	q      ladder
	seq    uint64
	nlive  int // live (un-finished) contexts
	halted bool
	// Budget of the current run, consulted by the dispatch loop and by the
	// solo-wake fast path on every dispatch.
	budgeted bool
	budget   uint64 // events left to dispatch while budgeted (RunLimit)
	// ctxs tracks spawned contexts for deadlock diagnostics. Finished
	// contexts are pruned by amortized compaction (retire) and by Stuck.
	ctxs  []*Context
	ndone int // finished contexts not yet pruned from ctxs
	// idle holds the coroutines of finished bodies, parked until a Spawn
	// binds one to a new context; Run and RunLimit stop them on return.
	// resuming is the context the dispatch loop last resumed: a coroutine
	// starting a body reads it. coroutineFn is e.coroutine, built once so a
	// new coroutine costs no method-value closure.
	idle        []coroutine
	resuming    *Context
	coroutineFn func(yield func(struct{}) bool)
	// chooser, when non-nil, decides which of several same-cycle events
	// fires first (see SetChooser). candBuf/choiceBuf are its reusable
	// scratch so choice points stay allocation-free.
	chooser   Chooser
	candBuf   []*event
	choiceBuf []Choice
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{q: newLadder()}
	e.coroutineFn = e.coroutine
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	r := e.q.get()
	r.at, r.seq, r.fn = t, e.seq, fn
	e.q.push(r)
}

// atWake schedules a closure-free context wake-up record (the hot path of
// Block/Unblock; WaitUntil arms its record inline for the solo-wake check).
//
//alewife:hotpath
func (e *Engine) atWake(t Time, c *Context, gen uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling wake at %d before now %d", t, e.now))
	}
	e.seq++
	r := e.q.get()
	r.at, r.seq, r.ctx, r.gen = t, e.seq, c, gen
	e.q.push(r)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) { e.At(e.now+d, fn) }

// Sink receives pooled closure-free events scheduled with AtSink. The
// meaning of op/p0/p1 is the sink's own; the engine just carries them.
// Subsystems with per-message traffic (the coherence protocol, the network,
// the message unit) implement Sink once and encode each message kind in op,
// replacing a closure allocation per event with a pooled typed record.
type Sink interface {
	Fire(op uint32, p0, p1 uint64)
}

// AtSink schedules s.Fire(op, p0, p1) at absolute time t using a pooled
// record — the closure-free analogue of At for subsystem hot paths.
func (e *Engine) AtSink(t Time, s Sink, op uint32, p0, p1 uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	r := e.q.get()
	r.at, r.seq, r.sink, r.op, r.p0, r.gen = t, e.seq, s, op, p0, p1
	e.q.push(r)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.size }

// Choice kinds: what sort of pending event a candidate descriptor denotes.
const (
	// ChoiceFn is a plain callback event (opaque: nothing is known about
	// what it touches).
	ChoiceFn uint8 = iota
	// ChoiceWake resumes a context; Node identifies the processor when the
	// context set one.
	ChoiceWake
	// ChoiceSink is a pooled subsystem event; Node/Key come from the sink's
	// EventInfo when it implements SinkInfo.
	ChoiceSink
)

// Choice describes one candidate event at a choice point. Seq is the
// engine-assigned scheduling order (stable across identical re-executions,
// so a chooser can use it as the event's identity); Node is the processor
// the event belongs to, or -1 when unknown; Key names the resource the
// event touches (a cache line, a channel pair — sink-defined, meaningful
// only for ChoiceSink with Node >= 0). Two ChoiceSink candidates on
// different nodes AND different keys are the ones a partial-order reducer
// may treat as commuting.
type Choice struct {
	Seq  uint64
	Key  uint64
	Node int32
	Kind uint8
}

// Chooser decides which of several events ready at the same cycle fires
// first. Choose receives the shared fire time and one descriptor per
// candidate, in (at, seq) order, and returns the index to fire; the
// remaining candidates are re-offered (minus any that became stale) at the
// next choice point. The cands slice is scratch owned by the engine —
// copy it to retain. Returning an out-of-range index panics.
type Chooser interface {
	Choose(now Time, cands []Choice) int
}

// SinkInfo is optionally implemented by a Sink to describe its pending
// events to a Chooser: which node an event belongs to and which resource
// (line, pair — the sink's own key space) it touches. Sinks whose events
// have global effects should report node -1, which marks the event opaque
// — never treated as commuting with anything.
type SinkInfo interface {
	EventInfo(op uint32, p0, p1 uint64) (node int32, key uint64)
}

// SetChooser installs (or, with nil, removes) the engine's schedule
// chooser. With a chooser installed, every dispatch where more than one
// live event is ready at the minimum pending cycle consults the chooser
// instead of firing in seq order, and the solo-wake fast path in WaitUntil
// is disabled so no dispatch can bypass the hook. Installing a chooser
// changes which schedules run, never which schedules are possible: any
// pick corresponds to a legal (at, seq)-respecting execution at that
// cycle. Must not be called while a run is in progress.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// nextChosen is the chooser-aware analogue of ladder.next: it collects
// every record in the minimum pending bucket (all share one timestamp),
// silently discards stale wakes — firing one is a no-op, so offering it as
// an alternative would only multiply equivalent schedules — and delegates
// the pick to the chooser when more than one live candidate remains.
// Stale wakes dropped here do not consume RunLimit budget (they perform no
// work); otherwise dispatch semantics match the default path exactly.
func (e *Engine) nextChosen() *event {
	for {
		cands := e.q.candidates(e.candBuf[:0])
		e.candBuf = cands
		if len(cands) == 0 {
			return nil
		}
		live := cands[:0]
		for _, r := range cands {
			if c := r.ctx; c != nil && (c.done || c.gen != r.gen) {
				e.q.take(r)
				e.q.put(r)
				continue
			}
			live = append(live, r)
		}
		if len(live) == 0 {
			continue
		}
		r := live[0]
		if len(live) > 1 {
			ds := e.choiceBuf[:0]
			for _, c := range live {
				ds = append(ds, e.describe(c))
			}
			e.choiceBuf = ds
			i := e.chooser.Choose(live[0].at, ds)
			if i < 0 || i >= len(live) {
				panic(fmt.Sprintf("sim: chooser picked index %d of %d candidates", i, len(live)))
			}
			r = live[i]
		}
		e.q.take(r)
		return r
	}
}

// describe builds the Choice descriptor for one pending record.
func (e *Engine) describe(r *event) Choice {
	switch {
	case r.ctx != nil:
		return Choice{Seq: r.seq, Kind: ChoiceWake, Node: r.ctx.Node}
	case r.sink != nil:
		if si, ok := r.sink.(SinkInfo); ok {
			node, key := si.EventInfo(r.op, r.p0, r.gen)
			return Choice{Seq: r.seq, Kind: ChoiceSink, Node: node, Key: key}
		}
		return Choice{Seq: r.seq, Kind: ChoiceSink, Node: -1}
	default:
		return Choice{Seq: r.seq, Kind: ChoiceFn, Node: -1}
	}
}

// Halt stops the run loop after the current event completes. Used by drivers
// that reached their measurement and do not care about draining the queue.
func (e *Engine) Halt() { e.halted = true }

// dispatch is the dispatch loop, run on the goroutine that called Run: it
// pops events in (at, seq) order, runs callbacks and sinks inline, drops
// stale wakes, and resumes woken contexts, until a stop condition is
// reached. A panic from a callback, a sink or a context body propagates out
// of it to the Run caller.
func (e *Engine) dispatch() {
	for !e.halted && !(e.budgeted && e.budget == 0) {
		var r *event
		if e.chooser != nil {
			r = e.nextChosen()
		} else {
			r = e.q.next()
		}
		if r == nil {
			return
		}
		if e.budgeted {
			e.budget--
		}
		e.now = r.at
		if c := r.ctx; c != nil {
			gen := r.gen
			e.q.put(r)
			// A wake is stale — and dropped — if the context finished or
			// was resumed through another path since the wake was armed.
			if c.done || c.gen != gen {
				continue
			}
			c.blocked = false
			c.gen++
			e.resuming = c
			c.co.next()
			continue
		}
		if s := r.sink; s != nil {
			op, p0, p1 := r.op, r.p0, r.gen
			e.q.put(r)
			s.Fire(op, p0, p1)
			continue
		}
		fn := r.fn
		e.q.put(r)
		fn()
	}
}

// Run executes events in time order until the queue is empty or Halt is
// called. It must be called from the goroutine that created the engine.
func (e *Engine) Run() {
	defer e.stopIdle()
	e.halted = false
	e.budgeted = false
	e.dispatch()
}

// RunLimit executes at most max events in time order, stopping early on an
// empty queue or Halt. It reports whether the queue drained: false means the
// budget was exhausted first — the caller (e.g. the protocol fuzzer, whose
// broken-protocol mutations can livelock) should treat the run as stuck.
func (e *Engine) RunLimit(max uint64) bool {
	defer e.stopIdle()
	e.halted = false
	e.budgeted, e.budget = true, max
	e.dispatch()
	e.budgeted = false
	if e.budget == 0 {
		return e.q.size == 0
	}
	return true
}

// stopIdle ends every idle coroutine, so no goroutine outlives a run. A
// run that stops with contexts still parked keeps theirs: it can be
// resumed. Release ends those.
func (e *Engine) stopIdle() {
	for i, co := range e.idle {
		e.idle[i] = coroutine{}
		co.stop()
	}
	e.idle = e.idle[:0]
}

// Release ends every context that has not finished, for a run that will
// not be resumed (halted, out of budget or deadlocked): each parked body
// unwinds from its park without simulating further, running its deferred
// calls, and its coroutine exits. The contexts then read as done, so their
// pending wakes are dropped. Until it is called, every parked context's
// coroutine is a live goroutine that keeps all its body reaches alive.
func (e *Engine) Release() {
	for _, c := range e.ctxs {
		if c.done {
			continue
		}
		c.co.stop()
		c.co, c.yield, c.fn = coroutine{}, nil, nil
		c.done = true
		e.nlive--
	}
	e.pruneCtxs()
	e.stopIdle()
}
