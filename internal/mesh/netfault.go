package mesh

import (
	"alewife/internal/sim"
	"alewife/internal/stats"
)

// NetFault makes the mesh deterministically unreliable: each routed packet
// is independently dropped, duplicated or reordered with the configured
// probabilities, decided by a seeded hash of a per-mesh packet counter. The
// same (seed, traffic) always misbehaves identically, so lossy runs replay
// and shrink exactly like clean ones.
//
// A nil *NetFault — the normal case — injects nothing and costs one nil
// check per packet, the same contract as mem.Fault and Params.MaxJitter.
// The mesh itself stays oblivious to recovery: restoring exactly-once FIFO
// delivery on top of a faulty mesh is the reliability sublayer's job
// (cmmu.Reliable); running the coherence protocol over a faulty mesh
// without it will corrupt protocol state, which is precisely what the
// checker suite is paid to notice.
type NetFault struct {
	Seed uint64 // decorrelates fault schedules between runs

	Drop    float64 // probability a packet silently vanishes
	Dup     float64 // probability a packet is delivered twice
	Reorder float64 // probability a packet is delayed past the FIFO clamp

	// ReorderMax bounds the extra delay of a reordered packet; DupMax
	// bounds the lag of a duplicate's second copy. Zero picks defaults
	// sized to overtake a handful of subsequent packets.
	ReorderMax uint64
	DupMax     uint64

	// Chooser, when non-nil, replaces the seeded coin: every packet's fate
	// is delegated to it instead of the probability fields above. The
	// schedule explorer uses this to enumerate fault placements
	// systematically rather than sampling them.
	Chooser FaultChooser
}

// Fault verdicts, exported for FaultChooser implementations.
const (
	FaultNone = iota
	FaultDrop
	FaultDup
	FaultReorder
)

// FaultChooser decides packet fates one at a time. ChooseFault is called
// with the endpoints and the per-network packet ordinal n (1-based, the
// same counter the seeded schedule hashes) and returns the verdict plus
// the fault's delay parameter: the extra cycles a duplicate's second copy
// lags, or a reordered packet is delayed. A zero delay picks the default
// magnitude (half the configured maximum); the delay is ignored for
// FaultNone and FaultDrop.
type FaultChooser interface {
	ChooseFault(src, dst int, n uint64) (kind int, delay uint64)
}

const (
	defaultReorderMax = 256
	defaultDupMax     = 64
)

func (ft *NetFault) reorderMax() uint64 {
	if ft.ReorderMax > 0 {
		return ft.ReorderMax
	}
	return defaultReorderMax
}

func (ft *NetFault) dupMax() uint64 {
	if ft.DupMax > 0 {
		return ft.DupMax
	}
	return defaultDupMax
}

// mix is splitmix64's finalizer: a cheap, well-distributed packet hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// verdict classifies packet n: the low half of the hash picks the fault
// class, the high half parameterizes it (delay magnitudes).
func (ft *NetFault) verdict(n uint64) (kind int, h uint64) {
	h = mix(n ^ mix(ft.Seed))
	u := float64(h&0xffffffff) / (1 << 32) // uniform in [0,1)
	switch {
	case u < ft.Drop:
		return FaultDrop, h
	case u < ft.Drop+ft.Dup:
		return FaultDup, h
	case u < ft.Drop+ft.Dup+ft.Reorder:
		return FaultReorder, h
	}
	return FaultNone, h
}

// Resolve decides packet n's fate and delay: the Chooser decides when one
// is installed, the seeded hash otherwise. Either way the delay magnitudes
// match: 1..max cycles, default max derived the same way.
func (ft *NetFault) Resolve(src, dst int, n uint64) (kind int, delay uint64) {
	if ft.Chooser != nil {
		kind, delay = ft.Chooser.ChooseFault(src, dst, n)
		if delay == 0 {
			switch kind {
			case FaultDup:
				delay = 1 + ft.dupMax()/2
			case FaultReorder:
				delay = 1 + ft.reorderMax()/2
			}
		}
		return kind, delay
	}
	var h uint64
	kind, h = ft.verdict(n)
	switch kind {
	case FaultDup:
		delay = 1 + (h>>32)%ft.dupMax()
	case FaultReorder:
		delay = 1 + (h>>32)%ft.reorderMax()
	}
	return kind, delay
}

// fault applies the configured packet faults to a routed delivery time t.
// It returns the (possibly delayed) delivery time, the second copy's time
// for a duplicated packet (0 otherwise), and whether the packet is dropped.
// Reorder delays are added after route's per-pair FIFO clamp, so a delayed
// packet genuinely lands behind later traffic between the same endpoints.
func (m *Mesh) fault(src, dst int, t sim.Time) (deliver, dup sim.Time, drop bool) {
	m.faultPkts++
	kind, delay := m.p.Fault.Resolve(src, dst, m.faultPkts)
	switch kind {
	case FaultDrop:
		if m.st != nil {
			m.st.Inc(src, stats.CNetFaultDrops)
		}
		return 0, 0, true
	case FaultDup:
		if m.st != nil {
			m.st.Inc(src, stats.CNetFaultDups)
		}
		return t, t + delay, false
	case FaultReorder:
		if m.st != nil {
			m.st.Inc(src, stats.CNetFaultReorders)
		}
		return t + delay, 0, false
	}
	return t, 0, false
}
