package core

import (
	"alewife/internal/machine"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Thread is a started task: a green thread with its own simulation context,
// pinned to the node where it began executing (tasks migrate before they
// start, never after, as with lazy task creation).
type Thread struct {
	id   uint64
	task *Task
	core *core
	proc *machine.Proc

	// wakeVal carries a future's value delivered with the wake-up message
	// in hybrid mode (synchronization bundled with data).
	wakeVal    uint64
	hasWakeVal bool

	finished bool
}

// newThread wraps a task for execution on core c.
func (rt *RT) newThread(t *Task, c *core) *Thread {
	th := &Thread{id: rt.newTaskID(), task: t, core: c}
	rt.threads[th.id] = th
	rt.M.St.Inc(c.id, stats.CThreadsCreated)
	return th
}

// start spins up the thread's context; it runs until completion or first
// suspension, then hands the processor back to the scheduler.
func (th *Thread) start() {
	c := th.core
	rt := c.rt
	th.proc = rt.M.SpawnNumbered(c.id, rt.M.Eng.Now(), "thr", th.id,
		func(p *machine.Proc) {
			tc := &TC{P: p, RT: rt, thread: th, core: c}
			th.task.fn(tc)
			p.Flush()
			th.finished = true
			delete(rt.threads, th.id)
			c.threadYield()
		})
}

// resume continues a suspended thread.
func (th *Thread) resume() {
	if th.finished || th.proc == nil {
		panic("core: resume of unstarted or finished thread")
	}
	th.proc.Ctx.Unblock()
}

// suspend parks the calling thread and gives the processor back to the
// node's scheduler; the thread becomes runnable again when something
// enqueues it on its core's wake queue.
func (th *Thread) suspend() {
	th.proc.Flush()
	th.core.rt.M.Trace.Emit(th.proc.Ctx.Now(), th.core.id, trace.KSuspend, th.id)
	th.core.threadYield()
	th.proc.Ctx.Block()
}
