// Package meshtest holds the saturating packet pump shared by the mesh
// and reliable-delivery benchmarks and their allocation pins.
package meshtest

import (
	"alewife/internal/mesh"
	"alewife/internal/sim"
)

// standing is the packet population kept in flight.
const standing = 64

// sizes cycles packet payloads through control- and data-sized messages.
var sizes = [...]int{8, 8, 24, 8, 96}

// pump keeps the standing population in flight: every delivery launches
// the next packet from the arriving packet's destination until total have
// been sent. Packets travel the pooled SendMsg path with (dst, hop) in the
// event payload, so the steady state allocates nothing.
type pump struct {
	eng             *sim.Engine
	net             mesh.Network
	total           int64
	sent, delivered int64
}

// Fire implements sim.Sink: one delivery; p0 is the arriving packet's
// destination (the next source), p1 its hop count.
func (d *pump) Fire(op uint32, p0, p1 uint64) {
	d.delivered++
	d.launch(int(p0), int(p1)+1)
}

func (d *pump) launch(src, hop int) {
	if d.sent == d.total {
		return
	}
	d.sent++
	// A fixed co-prime stride visits every (src,dst) pair class.
	dst := (src + 13 + hop%7) % d.net.Nodes()
	d.net.SendMsg(src, dst, sizes[hop%len(sizes)], d.eng.Now(), d, 0, uint64(dst), uint64(hop))
}

// Saturate sends total packets over net from a standing population of 64,
// runs eng until its queue drains, and returns the packets delivered. The
// traffic pattern is a pure function of the loop indices, so runs are
// reproducible. A network that loses a packet returns less than total;
// one that duplicates returns more.
func Saturate(eng *sim.Engine, net mesh.Network, total int64) int64 {
	d := &pump{eng: eng, net: net, total: total}
	for i := 0; i < standing; i++ {
		eng.At(eng.Now(), func() { d.launch(i%net.Nodes(), i) })
	}
	eng.Run()
	return d.delivered
}
