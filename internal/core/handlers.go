package core

import (
	"alewife/internal/cmmu"
	"alewife/internal/stats"
)

// registerHandlers installs this core's runtime message handlers. Both
// modes register them: hybrid primitives are also benchmarked standalone
// against a shared-memory runtime.
func (c *core) registerHandlers() {
	cm := c.node.CMMU
	cm.Register(msgSteal, c.onSteal)
	cm.Register(msgTask, c.onTask)
	cm.Register(msgNoTask, c.onNoTask)
	cm.Register(msgWake, c.onWake)
	cm.Register(msgInvoke, c.onInvoke)
	cm.Register(msgBarArrive, c.onBarArrive)
	cm.Register(msgBarWake, c.onBarWake)
	cm.Register(msgCopy, c.onCopy)
	cm.Register(msgCopyAck, c.onCopyAck)
	cm.Register(msgCopyReq, c.onCopyReq)
}

// onSteal serves a steal request at the victim: pop the oldest local task
// (or a batch, with StealBatch > 1) and reply with everything needed to
// run it in one message, or decline.
func (c *core) onSteal(e *cmmu.Env) {
	e.ReadOps(1)
	thief := int(e.Ops[0])
	e.Elapse(c.rt.P.HandlerQueueOp)
	batch := c.htaskq.handlerStealBatch(c.rt.P.StealBatch)
	if len(batch) == 0 {
		e.Reply(cmmu.Descriptor{Type: msgNoTask, Dst: thief})
		return
	}
	// All the information needed to run the threads is marshaled into a
	// single message (Section 4.3): ids as operands, descriptor words
	// gathered from the marshaling buffer by DMA.
	ops := make([]uint64, 1, 1+len(batch))
	ops[0] = uint64(len(batch))
	for _, it := range batch {
		ops = append(ops, it.task.id)
		e.Elapse(c.rt.P.QueueOpCycles) // marshal one descriptor
	}
	e.Reply(cmmu.Descriptor{
		Type:    msgTask,
		Dst:     thief,
		Ops:     ops,
		Regions: []cmmu.Region{{Base: c.scratch, Words: uint64(len(batch) * c.rt.P.TaskWords)}},
	})
}

// onTask lands migrated tasks at the thief and unpacks them straight into
// the local queue, atomically, inside the handler.
func (c *core) onTask(e *cmmu.Env) {
	e.ReadOps(len(e.Ops))
	n := int(e.Ops[0])
	for i := 0; i < n; i++ {
		t := c.rt.task(e.Ops[1+i])
		e.Elapse(c.rt.P.HandlerQueueOp)
		c.htaskq.handlerPush(queueItem{task: t})
		c.rt.M.St.Inc(c.id, stats.CThreadsStolen)
	}
	c.stealPending = false
	c.wakeIdle()
}

// onNoTask records a declined steal.
func (c *core) onNoTask(e *cmmu.Env) {
	c.rt.M.St.Inc(c.id, stats.CStealFailures)
	c.stealPending = false
	c.wakeIdle()
}

// onWake makes a suspended local thread runnable, delivering the future's
// value that rode along in the same message.
func (c *core) onWake(e *cmmu.Env) {
	e.ReadOps(2)
	th := c.rt.thread(e.Ops[0])
	th.wakeVal = e.Ops[1]
	th.hasWakeVal = true
	e.Elapse(c.rt.P.HandlerQueueOp)
	c.hwakeq.handlerPush(queueItem{thread: th})
	c.wakeIdle()
}

// onInvoke queues a remotely invoked task (message-passing remote thread
// invocation): unpack and enqueue atomically, no locks, no round trips.
func (c *core) onInvoke(e *cmmu.Env) {
	e.ReadOps(len(e.Ops))
	t := c.rt.task(e.Ops[0])
	e.Elapse(c.rt.P.HandlerQueueOp)
	if c.rt.Mode == ModeSharedMemory {
		// Standalone benchmark use on an SM runtime: enqueue through the
		// simulated queue at boot-level cost (handler-side atomic push).
		c.taskq.bootPush(c.rt.M, queueItem{task: t})
	} else {
		c.htaskq.handlerPush(queueItem{task: t})
	}
	c.wakeIdle()
}
