package cmmu

import (
	"fmt"
	"testing"

	"alewife/internal/mesh"
	"alewife/internal/mesh/meshtest"
	"alewife/internal/sim"
)

// netLossRates are the per-packet drop, duplicate and reorder rates the
// net-loss family runs at: 0 prices the sublayer itself (headers, acks,
// window bookkeeping) with no faults firing; 0.1% and 1% add recovery.
var netLossRates = []float64{0, 0.001, 0.01}

// newLossyNet builds the reliable sublayer over an 8x8 mesh whose wires
// fail at rate.
func newLossyNet(rate float64) (*sim.Engine, *Reliable) {
	eng := sim.NewEngine()
	p := mesh.DefaultParams()
	if rate > 0 {
		p.Fault = &mesh.NetFault{Seed: 1, Drop: rate, Dup: rate, Reorder: rate}
	}
	return eng, NewReliable(eng, mesh.New(eng, 8, 8, p, nil), DefaultRelParams(), nil)
}

// saturate drives total packets end to end and fails unless the reliable
// layer delivered every one exactly once.
func saturate(tb testing.TB, eng *sim.Engine, r *Reliable, total int64) {
	if got := meshtest.Saturate(eng, r, total); got != total {
		tb.Fatalf("delivered %d of %d packets", got, total)
	}
}

// BenchmarkNetLoss is the mesh saturation workload through the reliable
// sublayer, so it prices reliable delivery against BenchmarkMeshSaturation.
// One op is one packet delivered end to end.
func BenchmarkNetLoss(b *testing.B) {
	for _, rate := range netLossRates {
		b.Run(fmt.Sprint(rate*100), func(b *testing.B) {
			b.ReportAllocs()
			eng, r := newLossyNet(rate)
			b.ResetTimer()
			saturate(b, eng, r, int64(b.N))
		})
	}
}

// The reliable layer allocates nothing per packet at 0% loss; with loss,
// what recovery allocates depends on where the fault schedule strikes, so
// the count is repeatable but not flat. Pinned per rate for warmed
// 20k-packet runs (the same counts with and without the race detector).
// Each run also fails unless every packet arrived exactly once.
func TestNetLossAllocs(t *testing.T) {
	want := [...]float64{65, 116, 75} // indexed like netLossRates
	for i, rate := range netLossRates {
		t.Run(fmt.Sprint(rate*100), func(t *testing.T) {
			eng, r := newLossyNet(rate)
			got := testing.AllocsPerRun(5, func() { saturate(t, eng, r, 20_000) })
			if got > want[i] {
				t.Fatalf("%v allocs per 20k-packet run, want <= %v", got, want[i])
			}
		})
	}
}
