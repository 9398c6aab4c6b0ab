// Package pool is a miniature free-list: get hands out records, put
// recycles them. Using a record after put is a use-after-free that only
// bites once the record is re-issued mid-flight.
package pool

import (
	"container/ring"
	"sync"
)

type rec struct {
	n    int
	next *rec
}

type pool struct{ free *rec }

func (p *pool) get() *rec {
	if r := p.free; r != nil {
		p.free = r.next
		return r
	}
	return &rec{}
}

func (p *pool) put(r *rec) {
	r.next = p.free
	p.free = r
}

// UseAfterPut is the plain shape: any touch after the release reads
// recycled memory.
func UseAfterPut(p *pool) int {
	r := p.get()
	r.n = 1
	p.put(r)
	return r.n // want `pooled record r used after put`
}

// RosterLeak is the pre-PR-6 ctxs-roster shape: a released record retained
// by a longer-lived structure.
func RosterLeak(p *pool, roster []*rec) []*rec {
	r := p.get()
	p.put(r)
	return append(roster, r) // want `pooled record r used after put`
}

// CopyThenPut is the engine dispatch-loop shape: copy the payload, release
// inside the branch, and exit the branch — later code never sees the dead
// record, so nothing is flagged.
func CopyThenPut(p *pool, done bool) int {
	r := p.get()
	if done {
		n := r.n
		p.put(r)
		return n
	}
	r.n++
	p.put(r)
	return 0
}

// Reacquire overwrites the variable after the release: tracking resets and
// the new record is live.
func Reacquire(p *pool) int {
	r := p.get()
	p.put(r)
	r = p.get()
	r.n = 2
	p.put(r)
	return 0
}

// StdlibLookalike: ring.Next and sync.Pool.Put match the acquire and
// release name patterns, but they belong to the standard library, not to a
// pool of this module, so nothing is flagged.
func StdlibLookalike(r *ring.Ring, p *sync.Pool) int {
	n := r.Next()
	p.Put(n)
	return n.Len()
}
