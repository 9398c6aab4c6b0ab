package apps

import (
	"math"
	"testing"

	"alewife/internal/core"
	"alewife/internal/machine"
	"alewife/internal/metrics"
)

// The attribution invariant: with the profiler enabled, every simulated
// cycle of every node lands in exactly one timeline bucket, and the buckets
// sum exactly to the elapsed cycles per node (Untracked absorbing only
// genuinely unobserved time, never a negative remainder). Each app below
// runs small with metrics on; Finalize errors on over-attribution (the
// double-counting failure mode) and CheckInvariant re-verifies the sum.

// profiledRT builds a runtime on a machine with metrics enabled. The
// profiler must be attached before any Proc spawns (the runtime's
// schedulers spawn inside core.NewDefault).
func profiledRT(t *testing.T, nodes int, mode core.Mode) (*core.RT, *metrics.Profiler) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(nodes))
	prof := m.EnableMetrics()
	rt := core.NewDefault(m, mode)
	checkCoherence(t, m)
	return rt, prof
}

// finishAttrib finalizes and checks the invariant after an app ran.
func finishAttrib(t *testing.T, m *machine.Machine, prof *metrics.Profiler) {
	t.Helper()
	if err := prof.Finalize(uint64(m.Eng.Now())); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := prof.CheckInvariant(); err != nil {
		t.Fatalf("CheckInvariant: %v", err)
	}
	if prof.Total(metrics.Compute) == 0 {
		t.Errorf("no compute cycles attributed: %s", prof)
	}
	t.Logf("attribution:\n%s", prof)
}

func TestAttribMemcpyAllKinds(t *testing.T) {
	// Figure 7's workload: every copy implementation must satisfy the
	// sum-to-elapsed invariant, including the message kind whose completion
	// wait parks under an explicit SyncWait region.
	for _, kind := range []CopyKind{CopyNoPrefetch, CopyPrefetch, CopyMessage} {
		rt, prof := profiledRT(t, 4, core.ModeHybrid)
		r := Memcpy(rt, 3, 4096, kind)
		if r.Cycles == 0 {
			t.Fatalf("%v: zero cycles", kind)
		}
		finishAttrib(t, rt.M, prof)
		if kind != CopyNoPrefetch && prof.Total(metrics.MissStall)+prof.Total(metrics.SyncWait) == 0 {
			t.Errorf("%v: expected stall or sync-wait cycles, got none", kind)
		}
	}
}

func TestAttribAccum(t *testing.T) {
	// Figure 8's workload, both flavours.
	m := machine.New(machine.DefaultConfig(4))
	prof := m.EnableMetrics()
	checkCoherence(t, m)
	r := AccumSM(m, 3, 256)
	if r.Sum != AccumExpected(256) {
		t.Fatalf("AccumSM sum = %d", r.Sum)
	}
	finishAttrib(t, m, prof)
	if prof.Total(metrics.MissStall) == 0 {
		t.Errorf("AccumSM: remote accumulate should stall on misses")
	}

	rt, prof2 := profiledRT(t, 4, core.ModeHybrid)
	r2 := AccumMP(rt, 3, 256)
	if r2.Sum != AccumExpected(256) {
		t.Fatalf("AccumMP sum = %d", r2.Sum)
	}
	finishAttrib(t, rt.M, prof2)
	if prof2.Total(metrics.Handler) == 0 {
		t.Errorf("AccumMP: message path should record handler cycles")
	}
}

func TestAttribGrain(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		r := GrainParallel(rt, 6, 50)
		if r.Sum != 64 {
			t.Fatalf("%v: sum = %d, want 64", mode, r.Sum)
		}
		finishAttrib(t, rt.M, prof)
		if prof.Total(metrics.Idle) == 0 {
			t.Errorf("%v: scheduler loop should record idle cycles", mode)
		}
		if prof.Total(metrics.SyncWait) == 0 {
			t.Errorf("%v: future touches should record sync-wait cycles", mode)
		}
	}
}

func TestAttribAQ(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		AQParallel(rt, 0.03)
		finishAttrib(t, rt.M, prof)
	}
}

func TestAttribBFS(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		g := NewBFSGraph(rt.M, 64, 4)
		r := BFS(rt, g, 0)
		if r.Visited == 0 {
			t.Fatalf("%v: BFS visited nothing", mode)
		}
		finishAttrib(t, rt.M, prof)
	}
}

func TestAttribJacobi(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		Jacobi(rt, 16, 2)
		finishAttrib(t, rt.M, prof)
		if prof.Total(metrics.SyncWait) == 0 {
			t.Errorf("%v: jacobi barriers should record sync-wait cycles", mode)
		}
	}
}

func TestAttribProdCons(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	prof := m.EnableMetrics()
	checkCoherence(t, m)
	ProdConsSM(m, 32)
	finishAttrib(t, m, prof)

	rt, prof2 := profiledRT(t, 2, core.ModeHybrid)
	ProdConsMP(rt, 32)
	finishAttrib(t, rt.M, prof2)
}

func TestAttribTranspose(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSharedMemory, core.ModeHybrid} {
		rt, prof := profiledRT(t, 4, mode)
		Transpose(rt, 64)
		finishAttrib(t, rt.M, prof)
	}
}

func TestAttribDisabledIsInert(t *testing.T) {
	// Without EnableMetrics the machine must behave identically: same
	// cycle counts as a profiled run (metrics are observation only).
	plain := Memcpy(newRT(t, 4, core.ModeHybrid), 3, 4096, CopyMessage)
	rt, prof := profiledRT(t, 4, core.ModeHybrid)
	profiled := Memcpy(rt, 3, 4096, CopyMessage)
	if plain.Cycles != profiled.Cycles {
		t.Fatalf("profiling changed timing: plain=%d profiled=%d", plain.Cycles, profiled.Cycles)
	}
	finishAttrib(t, rt.M, prof)
}

// The enabled-overhead benchmark pair: same workload with and without the
// profiler attached. The delta is the real cost of cycle attribution
// (documented in EXPERIMENTS.md); the disabled path is a nil check.
func benchJacobi(b *testing.B, profiled bool) {
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultConfig(8))
		if profiled {
			m.EnableMetrics()
		}
		Jacobi(core.NewDefault(m, core.ModeHybrid), 32, 4)
	}
}

func BenchmarkJacobiPlain(b *testing.B)    { benchJacobi(b, false) }
func BenchmarkJacobiProfiled(b *testing.B) { benchJacobi(b, true) }

// Cycle attribution is a pure function of the workload, so three profiled
// runs pin every bucket's share of machine cycles exactly, rounded to four
// decimals: any change in simulated behaviour that moves a bucket by 1e-4
// or more fails here. Buckets absent from a table must be absent from the
// run.
func TestAttribSharesPinned(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		mode   core.Mode
		body   func(*core.RT)
		shares map[string]float64
	}{
		{"jacobi-hybrid", 16, core.ModeHybrid, func(rt *core.RT) { Jacobi(rt, 16, 2) }, map[string]float64{
			"cache-hit": 0.0381, "compute": 0.2579, "dir-pipeline": 0.0732,
			"handler": 0.3193, "miss-stall": 0.1099, "msg-queue": 0.0356,
			"net-transit": 0.0469, "sync-wait": 0.1382, "untracked": 0.1366,
		}},
		{"grain-sm", 8, core.ModeSharedMemory, func(rt *core.RT) { GrainParallel(rt, 6, 100) }, map[string]float64{
			"cache-hit": 0.014, "compute": 0.0625, "dir-pipeline": 0.1354,
			"dir-trap": 0.079, "idle": 0.5121, "miss-stall": 0.0957,
			"net-queue": 0.0289, "net-transit": 0.193, "sync-wait": 0.2179,
			"untracked": 0.0188,
		}},
		{"memcpy-msg", 4, core.ModeHybrid, func(rt *core.RT) { Memcpy(rt, 1, 4096, CopyMessage) }, map[string]float64{
			"cache-hit": 0.0109, "compute": 0.0085, "dir-pipeline": 0.0982,
			"miss-stall": 0.1419, "net-transit": 0.0884, "sync-wait": 0.0887,
			"untracked": 0.75,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, prof := profiledRT(t, tc.nodes, tc.mode)
			tc.body(rt)
			finishAttrib(t, rt.M, prof)
			got := prof.Shares()
			for name, share := range got {
				got[name] = math.Round(share*1e4) / 1e4
			}
			for b := metrics.Bucket(0); b < metrics.NumBuckets; b++ {
				if name := b.String(); got[name] != tc.shares[name] {
					t.Errorf("%s share = %v, want %v", name, got[name], tc.shares[name])
				}
			}
		})
	}
}
