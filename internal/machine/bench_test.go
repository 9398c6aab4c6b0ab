package machine_test

import (
	"testing"

	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mem"
)

// dirChurn hammers the home directory machinery: 8 nodes take turns writing
// and reading 12 lines homed on node 0 through a 16-set direct-mapped cache
// with 4 hardware pointers, so every access is an invalidation round, a
// recall, an eviction or a LimitLESS overflow trap. Access patterns are
// pure functions of loop indices.
type dirChurn struct {
	m     *machine.Machine
	addrs []mem.Addr
}

const churnNodes, churnLines = 8, 12

func newDirChurn() *dirChurn {
	cfg := machine.DefaultConfig(churnNodes)
	cfg.CacheSets = 16
	cfg.CacheWays = 1
	cfg.Mem.HWPointers = 4
	d := &dirChurn{m: machine.New(cfg), addrs: make([]mem.Addr, churnLines)}
	for i := range d.addrs {
		d.addrs[i] = d.m.Store.AllocOn(0, mem.LineWords)
	}
	return d
}

// run makes perNode accesses on every node and fails if a read returned a
// value no write to that line could have stored.
func (d *dirChurn) run(tb testing.TB, perNode int) {
	// Node n's i-th access goes to line (i+3n)%churnLines and writes the
	// tag i<<8|n when (i+n)%3 == 0.
	line := func(i, n int) int { return (i + 3*n) % churnLines }
	written := func(l int, v uint64) bool {
		i, n := int(v>>8), int(v&0xff)
		return v == 0 || n < churnNodes && i < perNode && (i+n)%3 == 0 && line(i, n) == l
	}
	bad := 0
	for n := 0; n < churnNodes; n++ {
		d.m.Spawn(n, d.m.Eng.Now(), "churn", func(p *machine.Proc) {
			for i := 0; i < perNode; i++ {
				l := line(i, n)
				if (i+n)%3 == 0 {
					p.Write(d.addrs[l], uint64(i)<<8|uint64(n))
				} else if !written(l, p.Read(d.addrs[l])) {
					bad++
				}
			}
			p.Flush()
		})
	}
	d.m.Run()
	if bad > 0 {
		tb.Fatalf("%d reads returned a value never written to their line", bad)
	}
}

// BenchmarkDirChurn measures the directory pipeline under constant
// invalidation, recall, eviction and overflow pressure. One op is one
// shared-memory access.
func BenchmarkDirChurn(b *testing.B) {
	b.ReportAllocs()
	d := newDirChurn()
	b.ResetTimer()
	d.run(b, b.N/churnNodes+1)
}

// dmaBulk streams 16-word memory-to-memory copies between 4 nodes: the CMMU
// gathers each region by DMA at the source and a handler stores it back at
// the destination (the paper's message-passing copy primitive).
type dmaBulk struct {
	m        *machine.Machine
	src, dst []mem.Addr
	handled  int
}

const dmaNodes, dmaWords, msgCopy = 4, 16, 200

func newDMABulk() *dmaBulk {
	d := &dmaBulk{m: machine.New(machine.DefaultConfig(dmaNodes)),
		src: make([]mem.Addr, dmaNodes), dst: make([]mem.Addr, dmaNodes)}
	for n := 0; n < dmaNodes; n++ {
		d.src[n] = d.m.Store.AllocOn(n, dmaWords)
		d.dst[n] = d.m.Store.AllocOn(n, dmaWords)
		for i := 0; i < dmaWords; i++ {
			d.m.Store.Write(d.src[n]+mem.Addr(i), uint64(n*dmaWords+i))
		}
		d.m.Nodes[n].CMMU.Register(msgCopy, func(e *cmmu.Env) {
			e.ReadOps(1)
			e.Storeback(d.dst[n], e.Data)
			d.handled++
		})
	}
	return d
}

// run sends perNode copies from every node and fails unless every copy was
// handled and every destination holds one sender's whole region.
func (d *dmaBulk) run(tb testing.TB, perNode int) {
	d.handled = 0
	for n := 0; n < dmaNodes; n++ {
		d.m.Spawn(n, d.m.Eng.Now(), "dma", func(p *machine.Proc) {
			// The CMMU gathers regions at injection, so one region
			// buffer serves every send.
			regions := []cmmu.Region{{Base: d.src[n], Words: dmaWords}}
			for i := 0; i < perNode; i++ {
				p.SendMessage(cmmu.Descriptor{Type: msgCopy, Dst: (n + 1 + i) % dmaNodes, Regions: regions})
				p.Elapse(20) // paced sender: the DMA engines stay busy, not the queue
			}
			p.Flush()
		})
	}
	d.m.Run()
	if want := perNode * dmaNodes; d.handled != want {
		tb.Fatalf("handled %d copies, want %d", d.handled, want)
	}
	// Sender s's region holds s*dmaWords+i at word i.
	for n, base := range d.dst {
		s := d.m.Store.Read(base) / dmaWords
		for i := 0; i < dmaWords; i++ {
			if v := d.m.Store.Read(base + mem.Addr(i)); s >= dmaNodes || v != s*dmaWords+uint64(i) {
				tb.Fatalf("node %d destination word %d = %d: not one sender's region", n, i, v)
			}
		}
	}
}

// BenchmarkDMABulk measures the CMMU bulk-transfer path: gather, inject,
// handler dispatch and storeback. One op is one word moved end to end.
func BenchmarkDMABulk(b *testing.B) {
	b.ReportAllocs()
	d := newDMABulk()
	b.ResetTimer()
	d.run(b, b.N/(dmaNodes*dmaWords)+1)
}

// Allocation pins for warmed runs of 500 operations per node. Both paths
// allocate per spawned context, not per access or copy, but the count is
// pinned rather than compared across run lengths: fmt's printer pool and
// the runtime's goroutine records refill after a GC, so dir-churn measures
// 148 allocations at 1k accesses per node and 146 at 4k. Without the race
// detector the counts repeat exactly (dir-churn 146, dma-bulk 72); the race
// detector's own allocations add up to 6 more and vary run to run, which
// sets the headroom below.

func TestDirChurnAllocs(t *testing.T) {
	d := newDirChurn()
	const want = 156
	got := testing.AllocsPerRun(10, func() { d.run(t, 500) })
	if got > want {
		t.Fatalf("%v allocs per run, want <= %d", got, want)
	}
}

func TestDMABulkAllocs(t *testing.T) {
	d := newDMABulk()
	const want = 78
	got := testing.AllocsPerRun(10, func() { d.run(t, 500) })
	if got > want {
		t.Fatalf("%v allocs per run, want <= %d", got, want)
	}
}
