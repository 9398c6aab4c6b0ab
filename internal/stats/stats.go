// Package stats collects counters for a simulation run: coherence traffic,
// message counts by type, cache hits/misses, cycles stolen by interrupt
// handlers, link utilization. Counters are plain integers — the whole
// simulator is single-threaded by construction — kept per node in a dense
// array indexed by the Counter enum; machine-wide totals are summed on read.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counter names, as they appear in reports and goldens. They stay untyped
// strings so report parsers can match lines against them.
const (
	CacheHits        = "cache.hits"
	CacheMisses      = "cache.misses"
	CacheEvictions   = "cache.evictions"
	CacheWritebacks  = "cache.writebacks"
	CacheUpgrades    = "cache.upgrades"
	Prefetches       = "cache.prefetches"
	PrefetchUseful   = "cache.prefetch_useful"
	DirOverflows     = "dir.limitless_overflows"
	DirSWTrapCycles  = "dir.limitless_trap_cycles"
	ProtoMsgs        = "proto.messages"
	ProtoInvals      = "proto.invalidations"
	NetPackets       = "net.packets"
	NetFlits         = "net.flits"
	NetPacketCycles  = "net.packet_cycles"
	MsgsSent         = "cmmu.msgs_sent"
	MsgsRecv         = "cmmu.msgs_received"
	MsgWords         = "cmmu.msg_words"
	DMAWords         = "cmmu.dma_words"
	IntStolenCycles  = "proc.stolen_cycles"
	ProcBusyCycles   = "proc.busy_cycles"
	IdleCycles       = "rts.idle_cycles"
	ThreadsCreated   = "rts.threads_created"
	ThreadsStolen    = "rts.threads_stolen"
	StealAttempts    = "rts.steal_attempts"
	StealFailures    = "rts.steal_failures"
	BarrierEpisodes  = "rts.barriers"
	LockAcquisitions = "rts.lock_acquisitions"
	LockSpins        = "rts.lock_spins"
	CheckViolations  = "check.violations"
	StressOps        = "stress.ops"
	NetFaultDrops    = "net.fault_drops"
	NetFaultDups     = "net.fault_dups"
	NetFaultReorders = "net.fault_reorders"
	RelRetransmits   = "rel.retransmits"
	RelTimeouts      = "rel.timeouts"
	RelDupDrops      = "rel.dup_drops"
	RelWindowDrops   = "rel.window_drops"
	RelAcks          = "rel.acks"
)

// Counter identifies one statistic; C<Name> counts under the name <Name>.
type Counter uint8

// Counters.
const (
	CCacheHits Counter = iota
	CCacheMisses
	CCacheEvictions
	CCacheWritebacks
	CCacheUpgrades
	CPrefetches
	CPrefetchUseful
	CDirOverflows
	CDirSWTrapCycles
	CProtoMsgs
	CProtoInvals
	CNetPackets
	CNetFlits
	CNetPacketCycles
	CMsgsSent
	CMsgsRecv
	CMsgWords
	CDMAWords
	CIntStolenCycles
	CProcBusyCycles
	CIdleCycles
	CThreadsCreated
	CThreadsStolen
	CStealAttempts
	CStealFailures
	CBarrierEpisodes
	CLockAcquisitions
	CLockSpins
	CCheckViolations
	CStressOps
	CNetFaultDrops
	CNetFaultDups
	CNetFaultReorders
	CRelRetransmits
	CRelTimeouts
	CRelDupDrops
	CRelWindowDrops
	CRelAcks
	NumCounters
)

var names = [NumCounters]string{
	CCacheHits:        CacheHits,
	CCacheMisses:      CacheMisses,
	CCacheEvictions:   CacheEvictions,
	CCacheWritebacks:  CacheWritebacks,
	CCacheUpgrades:    CacheUpgrades,
	CPrefetches:       Prefetches,
	CPrefetchUseful:   PrefetchUseful,
	CDirOverflows:     DirOverflows,
	CDirSWTrapCycles:  DirSWTrapCycles,
	CProtoMsgs:        ProtoMsgs,
	CProtoInvals:      ProtoInvals,
	CNetPackets:       NetPackets,
	CNetFlits:         NetFlits,
	CNetPacketCycles:  NetPacketCycles,
	CMsgsSent:         MsgsSent,
	CMsgsRecv:         MsgsRecv,
	CMsgWords:         MsgWords,
	CDMAWords:         DMAWords,
	CIntStolenCycles:  IntStolenCycles,
	CProcBusyCycles:   ProcBusyCycles,
	CIdleCycles:       IdleCycles,
	CThreadsCreated:   ThreadsCreated,
	CThreadsStolen:    ThreadsStolen,
	CStealAttempts:    StealAttempts,
	CStealFailures:    StealFailures,
	CBarrierEpisodes:  BarrierEpisodes,
	CLockAcquisitions: LockAcquisitions,
	CLockSpins:        LockSpins,
	CCheckViolations:  CheckViolations,
	CStressOps:        StressOps,
	CNetFaultDrops:    NetFaultDrops,
	CNetFaultDups:     NetFaultDups,
	CNetFaultReorders: NetFaultReorders,
	CRelRetransmits:   RelRetransmits,
	CRelTimeouts:      RelTimeouts,
	CRelDupDrops:      RelDupDrops,
	CRelWindowDrops:   RelWindowDrops,
	CRelAcks:          RelAcks,
}

// byName lists every counter in report order: sorted by name.
var byName = func() []Counter {
	cs := make([]Counter, NumCounters)
	for i := range cs {
		cs[i] = Counter(i)
	}
	sort.Slice(cs, func(i, j int) bool { return names[cs[i]] < names[cs[j]] })
	return cs
}()

func (c Counter) String() string {
	if c < NumCounters {
		return names[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// Machine holds one dense counter array per node.
type Machine struct {
	Node [][NumCounters]int64
}

// NewMachine returns stats for n nodes.
func NewMachine(n int) *Machine {
	return &Machine{Node: make([][NumCounters]int64, n)}
}

// Add increments counter c on node id by delta.
func (m *Machine) Add(id int, c Counter, delta int64) { m.Node[id][c] += delta }

// Inc increments counter c on node id by one.
func (m *Machine) Inc(id int, c Counter) { m.Node[id][c]++ }

// Total returns counter c summed over every node.
func (m *Machine) Total(c Counter) int64 {
	var sum int64
	for i := range m.Node {
		sum += m.Node[i][c]
	}
	return sum
}

// String renders the non-zero machine-wide totals, one per line sorted by
// name, for reports.
func (m *Machine) String() string {
	var b strings.Builder
	for _, c := range byName {
		if v := m.Total(c); v != 0 {
			fmt.Fprintf(&b, "%-28s %12d\n", names[c], v)
		}
	}
	return b.String()
}
