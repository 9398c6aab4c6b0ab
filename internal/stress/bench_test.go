package stress

import "testing"

// BenchmarkSeed runs one full stress seed — generator, 8-node machine,
// live checkers, history recording — end to end. This is the workload the
// fuzzer repeats thousands of times, so it is the macro-level check that
// engine-level wins survive contact with the full simulator.
func BenchmarkSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(1)
		cfg.Ops = 300
		res := mustRun(b, cfg)
		if res.Failed() {
			b.Fatal(res.Report())
		}
	}
}

// One 300-op seed allocates a fixed set: the machine, the generated
// program, the checkers and the recorded history. Without the race detector
// the count repeats exactly (1245); the race detector's own allocations add
// up to 9 more and vary run to run, which sets the headroom in the pin. A
// change that adds per-op allocations fails here.
func TestSeedAllocs(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Ops = 300
	const want = 1254
	got := testing.AllocsPerRun(10, func() { mustRun(t, cfg) })
	if got > want {
		t.Fatalf("%v allocs per seed, want <= %d", got, want)
	}
}
