package mesh_test

import (
	"testing"

	"alewife/internal/mesh"
	"alewife/internal/mesh/meshtest"
	"alewife/internal/sim"
)

// saturate drives total packets across m and fails unless every one
// arrives exactly once.
func saturate(tb testing.TB, eng *sim.Engine, m *mesh.Mesh, total int64) {
	if got := meshtest.Saturate(eng, m, total); got != total {
		tb.Fatalf("delivered %d of %d packets", got, total)
	}
}

// BenchmarkMeshSaturation measures per-packet cost (routing walk, link
// reservation, FIFO clamp, delivery scheduling) with the network kept
// saturated by a standing population of 64 packets. One op is one packet.
func BenchmarkMeshSaturation(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	m := mesh.New(eng, 8, 8, mesh.DefaultParams(), nil)
	b.ResetTimer()
	saturate(b, eng, m, int64(b.N))
}

// The pooled SendMsg path allocates nothing per packet: a warmed mesh
// allocates the same per run at 20k and 80k packets (the pump and its 64
// launch closures). One allocation added per send breaks the equality.
func TestMeshSaturationAllocsFlat(t *testing.T) {
	eng := sim.NewEngine()
	m := mesh.New(eng, 8, 8, mesh.DefaultParams(), nil)
	allocs := func(total int64) float64 {
		return testing.AllocsPerRun(5, func() { saturate(t, eng, m, total) })
	}
	short, long := allocs(20_000), allocs(80_000)
	if short != long {
		t.Fatalf("allocs per run grow with run length: %v at 20k packets, %v at 80k", short, long)
	}
}
