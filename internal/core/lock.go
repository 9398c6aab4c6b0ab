package core

import (
	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/metrics"
	"alewife/internal/stats"
)

// SpinLock is a test&set lock in shared memory with exponential backoff —
// the queue and future locks of the shared-memory runtime. The paper's
// point about such locks is precisely that acquiring one on a remote node
// costs at least a network round trip; the simulation makes that emerge
// from the coherence protocol rather than charging it directly.
type SpinLock struct {
	addr mem.Addr
}

// NewSpinLock allocates a lock word (its own cache line) on node.
func NewSpinLock(m *machine.Machine, node int) *SpinLock {
	return &SpinLock{addr: m.Store.AllocOn(node, mem.LineWords)}
}

// Acquire spins until the lock is held by p. Spin and backoff cycles are
// synchronization wait, not compute; the whole attempt runs under a
// SyncWait attribution region.
func (l *SpinLock) Acquire(p *machine.Proc) {
	p.PushRegion(metrics.SyncWait)
	backoff := uint64(4)
	for p.TestSet(l.addr) != 0 {
		p.Node.M.St.Inc(p.ID(), stats.CLockSpins)
		p.Elapse(backoff)
		p.Flush()
		if backoff < 256 {
			backoff *= 2
		}
	}
	p.PopRegion()
	p.Node.M.St.Inc(p.ID(), stats.CLockAcquisitions)
}

// Release frees the lock (a plain store; the line is exclusively held).
func (l *SpinLock) Release(p *machine.Proc) {
	p.Write(l.addr, 0)
}
