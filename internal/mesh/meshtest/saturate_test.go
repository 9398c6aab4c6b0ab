package meshtest_test

import (
	"testing"

	"alewife/internal/mesh"
	"alewife/internal/mesh/meshtest"
	"alewife/internal/sim"
)

// Saturate reports what the network delivered: every packet over perfect
// wires, fewer when the wires drop some, since a lost packet ends its chain.
func TestSaturateCountsDeliveries(t *testing.T) {
	const total = 2_000
	for _, drop := range []float64{0, 0.01} {
		p := mesh.DefaultParams()
		if drop > 0 {
			p.Fault = &mesh.NetFault{Seed: 1, Drop: drop}
		}
		eng := sim.NewEngine()
		got := meshtest.Saturate(eng, mesh.New(eng, 4, 4, p, nil), total)
		if drop == 0 && got != total || drop > 0 && got >= total {
			t.Errorf("drop %g: delivered %d of %d", drop, got, total)
		}
	}
}
