package bench

import (
	"runtime"
	"strings"
	"testing"

	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/sim/fanout"
	"alewife/internal/stats"
	"alewife/internal/stress"
)

// The simulator's replay guarantee: a run is a pure function of its inputs.
// These golden tests execute the paper's E1 (barrier) and E2 (invoke)
// measurements twice in-process and require bit-identical cycle counts and
// bit-identical stats snapshots — any hidden nondeterminism (map iteration,
// time, leftover global state) breaks them.

func TestBarrierDeterministic(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		a := barrierCycles(Config{}, 16, mode, core.DefaultMsgArity, core.DefaultSMArity)
		b := barrierCycles(Config{}, 16, mode, core.DefaultMsgArity, core.DefaultSMArity)
		if a != b {
			t.Errorf("%v: barrier cycles differ across identical runs: %d vs %d", mode, a, b)
		}
	}
}

func TestInvokeDeterministic(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		ar, ae := invokeTimes(Config{}, 16, mode)
		br, be := invokeTimes(Config{}, 16, mode)
		if ar != br || ae != be {
			t.Errorf("%v: invoke times differ across identical runs: (%d,%d) vs (%d,%d)",
				mode, ar, ae, br, be)
		}
	}
}

// barrierStats runs the E1 measurement loop on a fresh machine and returns
// its final cycle count plus every node's counter array.
func barrierStats(mode core.Mode) (uint64, [][stats.NumCounters]int64) {
	rt := newRT(Config{}, 16, mode)
	rt.SPMD(func(p *machine.Proc) {
		for i := 0; i < 4; i++ {
			rt.Barrier().Sync(p)
		}
		p.Flush()
	})
	return uint64(rt.M.Eng.Now()), rt.M.St.Node
}

func TestStatsSnapshotDeterministic(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		ac, as := barrierStats(mode)
		bc, bs := barrierStats(mode)
		if ac != bc {
			t.Errorf("%v: final cycle differs: %d vs %d", mode, ac, bc)
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Errorf("%v: node %d counters differ:\n run1: %v\n run2: %v", mode, i, as[i], bs[i])
			}
		}
	}
}

// withWorkers raises GOMAXPROCS to at least n for the duration of fn so the
// fan-out layer spawns real concurrent workers even on a single-CPU host —
// the parallel goldens must exercise actual goroutine interleavings (and
// give the race detector something to watch), not the inline serial path.
func withWorkers(n int, fn func()) {
	old := runtime.GOMAXPROCS(0)
	if old < n {
		runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
	}
	fn()
}

// TestParallelExperimentsMatchSerial is the fan-out determinism golden for
// the bench harness: the paper's E1 (barrier) and E2 (invoke) experiments,
// whose sweeps dispatch through parMap, must produce byte-identical output
// with 4 workers and with none.
func TestParallelExperimentsMatchSerial(t *testing.T) {
	for _, id := range []string{"barrier", "barrier-scale", "invoke"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		var serial, parallel strings.Builder
		e.Run(Config{Nodes: 16, Quick: true}, &serial)
		withWorkers(4, func() {
			e.Run(Config{Nodes: 16, Quick: true, Parallel: 4}, &parallel)
		})
		if serial.String() != parallel.String() {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				id, serial.String(), parallel.String())
		}
	}
}

// TestParallelRunAllMatchesSerial runs the whole experiment suite both ways
// on a small machine; emission must stay in ID order and byte-identical.
// Under -race it is also the engine-confinement gate for every parMap site:
// a job that touches state built outside it races with its sibling job.
// Two experiment workers on four Ps leave Ps free for each sweep's own
// workers, so sibling jobs start together; with every P taken by an
// experiment, a sibling can wait a scheduler slice while the first job
// runs ahead, and the race detector's bounded history then often misses
// the conflict.
func TestParallelRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is not short")
	}
	var serial, parallel strings.Builder
	RunAll(Config{Nodes: 4, Quick: true}, &serial)
	withWorkers(4, func() {
		RunAll(Config{Nodes: 4, Quick: true, Parallel: 2}, &parallel)
	})
	if serial.String() != parallel.String() {
		t.Fatal("parallel RunAll output differs from serial run")
	}
}

// TestParallelStressBatchMatchesSerial is the fuzzer-side golden: a batch
// of stress seeds fanned out over 4 workers must report exactly what a
// serial loop reports, seed by seed, byte for byte.
func TestParallelStressBatchMatchesSerial(t *testing.T) {
	const seeds = 6
	run := func(i int) string {
		cfg := stress.DefaultConfig(uint64(i))
		cfg.Ops = 200
		res, err := stress.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	var serial strings.Builder
	for i := 0; i < seeds; i++ {
		serial.WriteString(run(i))
	}
	var parallel strings.Builder
	withWorkers(4, func() {
		for _, out := range fanout.Run(seeds, 4, run) {
			parallel.WriteString(out)
		}
	})
	if serial.String() != parallel.String() {
		t.Fatalf("parallel stress batch differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}
