// Package machine assembles the Alewife-like multiprocessor: a discrete-
// event engine, a 2-D mesh, the distributed memory system with directory
// coherence, and one CMMU network interface per node. It exposes Proc, the
// processor API that simulated programs are written against — Figure 4 of
// the paper: the processor reaches both the shared-memory hardware and the
// network through one integrated interface.
package machine

import (
	"fmt"

	"alewife/internal/cmmu"
	"alewife/internal/mem"
	"alewife/internal/mesh"
	"alewife/internal/metrics"
	"alewife/internal/sim"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// Topology selects the interconnect shape.
type Topology int

// Interconnect topologies.
const (
	TopoMesh  Topology = iota // 2-D mesh (Alewife)
	TopoTorus                 // 2-D torus (wrap-around links)
	TopoIdeal                 // contention-free constant latency (ablation)
)

// Config sizes and parameterizes a machine.
type Config struct {
	Nodes        int
	WordsPerNode uint64 // per-node memory in 8-byte words
	CacheSets    int
	CacheWays    int
	ClockMHz     float64 // for cycle<->µs conversion in reports (Alewife: 33)
	Topology     Topology
	IdealLatency uint64 // one-way latency when Topology == TopoIdeal
	// SeqConsistent disables the run-ahead relaxation: every shared-memory
	// access synchronizes with the global clock first, so cache state is
	// observed in strict global order. Slower to simulate; used to
	// validate that the default weak ordering does not change the results
	// of properly synchronized programs.
	SeqConsistent bool
	Mem           mem.Params
	Net           mesh.Params
	CMMU          cmmu.Params
	// Reliable overrides the reliability sublayer's policy. The sublayer
	// itself is interposed automatically whenever cfg.Net.Fault is set (a
	// lossy mesh without recovery would corrupt the coherence protocol);
	// setting Reliable with a fault-free mesh forces it on anyway, which is
	// how its overhead is measured in isolation. Nil means: absent unless
	// faults demand it, defaults when they do.
	Reliable *cmmu.RelParams
}

// DefaultConfig returns the calibrated Alewife-like machine with n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:        n,
		WordsPerNode: 1 << 16, // 512 KB/node, plenty for the paper's workloads
		CacheSets:    2048,    // 2048 sets x 2 ways x 16 B = 64 KB
		CacheWays:    2,
		ClockMHz:     33,
		Mem:          mem.DefaultParams(),
		Net:          mesh.DefaultParams(),
		CMMU:         cmmu.DefaultParams(),
	}
}

// Machine is a full simulated multiprocessor.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   mesh.Network
	Store *mem.Store
	Fab   *mem.Fabric
	St    *stats.Machine
	Rel   *cmmu.Reliable // nil unless the reliability sublayer is interposed
	Nodes []*Node
	Trace *trace.Buffer      // nil unless EnableTrace was called
	Prof  *metrics.Profiler  // nil unless EnableMetrics was called
}

// EnableTrace attaches an event trace buffer keeping the most recent cap
// events from the memory system, the network interfaces and the runtime.
//alewife:engine-only
func (m *Machine) EnableTrace(cap int) *trace.Buffer {
	m.Trace = trace.New(cap)
	m.Fab.Trace = m.Trace
	if m.Rel != nil {
		m.Rel.Trace = m.Trace
	}
	for _, n := range m.Nodes {
		n.CMMU.Trace = m.Trace
	}
	return m.Trace
}

// EnableMetrics attaches a cycle-attribution profiler and threads it
// through every subsystem. Call it before spawning any Proc: each Proc
// caches the profiler pointer at spawn time so the disabled path stays a
// single nil branch. Metrics are pure bookkeeping — enabling them never
// changes simulated timing, so determinism goldens hold either way.
// Finalize the profiler with the engine's final Now() after the run.
//alewife:engine-only
func (m *Machine) EnableMetrics() *metrics.Profiler {
	m.Prof = metrics.New(m.Cfg.Nodes)
	m.Fab.Prof = m.Prof
	inner := m.Net
	if m.Rel != nil {
		m.Rel.Prof = m.Prof
		inner = m.Rel.Inner()
	}
	switch net := inner.(type) {
	case *mesh.Mesh:
		net.Prof = m.Prof
	case *mesh.Ideal:
		net.Prof = m.Prof
	}
	for _, n := range m.Nodes {
		n.CMMU.Prof = m.Prof
	}
	return m.Prof
}

// Node is one processing node: processor state, cache controller, CMMU.
type Node struct {
	ID   int
	M    *Machine
	Ctrl *mem.Ctrl
	CMMU *cmmu.CMMU

	// stolen accumulates interrupt-handler and LimitLESS-trap cycles that
	// the node's processor has not yet paid; the running Proc drains it.
	stolen uint64
	// stolenDir/stolenMsg split stolen by origin (directory trap vs message
	// handler) for attribution; maintained only while metrics are enabled.
	stolenDir uint64
	stolenMsg uint64
}

// StealCycles implements mem.ProcSink and cmmu.ProcSink; cycles charged
// through it directly carry no attribution origin (tests use this).
//alewife:engine-only
func (m *Machine) StealCycles(node int, cycles uint64) {
	m.Nodes[node].stolen += cycles
}

// dirSteal and msgSteal are the sinks the memory system and the CMMU
// actually charge through: same accounting as Machine.StealCycles, plus
// the origin split the profiler needs (one nil branch when disabled).
type dirSteal struct{ m *Machine }

func (s dirSteal) StealCycles(node int, cycles uint64) {
	n := s.m.Nodes[node]
	n.stolen += cycles
	if s.m.Prof != nil {
		n.stolenDir += cycles
	}
}

type msgSteal struct{ m *Machine }

func (s msgSteal) StealCycles(node int, cycles uint64) {
	n := s.m.Nodes[node]
	n.stolen += cycles
	if s.m.Prof != nil {
		n.stolenMsg += cycles
	}
}

// Validate reports the first field of cfg that cannot build a machine, with
// an error saying what to fix. New panics with the same error, so library
// callers that take a Config from outside the program call Validate first.
func (cfg *Config) Validate() error {
	switch {
	case cfg.Nodes < 1:
		return fmt.Errorf("machine: %d nodes; need at least one", cfg.Nodes)
	case cfg.WordsPerNode == 0:
		return fmt.Errorf("machine: WordsPerNode is 0; every node needs memory")
	case cfg.CacheSets < 1 || cfg.CacheSets&(cfg.CacheSets-1) != 0:
		return fmt.Errorf("machine: CacheSets is %d; want a positive power of two", cfg.CacheSets)
	case cfg.CacheWays < 1:
		return fmt.Errorf("machine: CacheWays is %d; want at least one", cfg.CacheWays)
	}
	return nil
}

// New builds a machine per cfg. It panics if cfg.Validate fails.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Cfg: cfg, Eng: sim.NewEngine(), St: stats.NewMachine(cfg.Nodes)}
	w, h := mesh.Dims(cfg.Nodes)
	switch cfg.Topology {
	case TopoTorus:
		m.Net = mesh.NewTorus(m.Eng, w, h, cfg.Net, m.St)
	case TopoIdeal:
		lat := cfg.IdealLatency
		if lat == 0 {
			lat = 10
		}
		// Keep wire-rate serialization so bulk transfers still take time;
		// only hops and contention vanish. Faults apply just as on the mesh,
		// so lossy ablations (and the schedule explorer) work here too.
		m.Net = &mesh.Ideal{Eng: m.Eng, N: cfg.Nodes, Latency: lat,
			BytesPerCycle: cfg.Net.FlitBytes, Fault: cfg.Net.Fault}
	default:
		m.Net = mesh.New(m.Eng, w, h, cfg.Net, m.St)
	}
	if cfg.Net.Fault != nil || cfg.Reliable != nil {
		// Interpose the reliability sublayer: every consumer above — the
		// coherence fabric as much as the message unit — sends through
		// m.Net, so wrapping it here restores exactly-once FIFO delivery
		// for the whole machine. With faults off and no explicit Reliable,
		// the layer is absent and the data path is byte-identical to a
		// machine built before it existed.
		rp := cmmu.DefaultRelParams()
		if cfg.Reliable != nil {
			rp = *cfg.Reliable
		}
		m.Rel = cmmu.NewReliable(m.Eng, m.Net, rp, m.St)
		m.Net = m.Rel
	}
	m.Store = mem.NewStore(cfg.Nodes, cfg.WordsPerNode)
	m.Fab = mem.NewFabric(m.Eng, m.Net, m.Store, cfg.Mem, m.St, dirSteal{m},
		cfg.CacheSets, cfg.CacheWays)
	m.Nodes = make([]*Node, cfg.Nodes)
	ifaces := make([]*cmmu.CMMU, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{ID: i, M: m, Ctrl: m.Fab.Ctrls[i]}
		n.CMMU = cmmu.New(i, m.Eng, m.Net, m.Store, n.Ctrl, cfg.CMMU, m.St, msgSteal{m})
		ifaces[i] = n.CMMU
		m.Nodes[i] = n
	}
	for _, c := range ifaces {
		c.SetPeers(ifaces)
	}
	return m
}

// Run drives the simulation until the event queue drains; it panics with a
// context dump if contexts remain blocked (deadlock in the simulated
// program or a protocol bug).
//alewife:engine-only
func (m *Machine) Run() {
	m.Eng.Run()
	if m.Eng.Live() > 0 {
		panic(fmt.Sprintf("machine: deadlock — %d contexts still blocked with no pending events: %v",
			m.Eng.Live(), m.Eng.Stuck()))
	}
}

// Cycles converts a cycle count to microseconds at the configured clock.
func (m *Machine) Micros(cycles uint64) float64 {
	return float64(cycles) / m.Cfg.ClockMHz
}

// Spawn starts body on node's processor at time `at` and returns its Proc.
// The runtime system layers threads on top; tests and microbenchmarks use
// Spawn directly.
//alewife:engine-only
func (m *Machine) Spawn(node int, at sim.Time, name string, body func(*Proc)) *Proc {
	p := &Proc{Node: m.Nodes[node], prof: m.Prof}
	p.Ctx = m.Eng.Spawn(fmt.Sprintf("n%d:%s", node, name), at, func(ctx *sim.Context) {
		body(p)
	})
	p.Ctx.Node = int32(node)
	if p.prof != nil {
		p.Ctx.BlockNote = p.noteBlock
	}
	return p
}
