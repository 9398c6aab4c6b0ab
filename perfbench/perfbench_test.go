package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"alewife/internal/bench"
)

// TestWorkCountsRepeat runs units of every workload twice at the default
// seed and requires identical simulated work counts and golden-matching
// outputs: the counts the traced run reports are exact, so a later change
// can cite them without noise.
func TestWorkCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			g, err := golden(w.name)
			if err != nil {
				t.Fatal(err)
			}
			units := w.prepare(defaultSeed, spans{})
			if w.name == "paper-eval" {
				units = cheapest(units) // the full sweep takes ~20 s
			} else {
				units = units[:2]
			}
			for _, u := range units {
				a, err := guard(u, true)
				if err != nil {
					t.Fatalf("%s: %v", u.key, err)
				}
				b, err := guard(u, true)
				if err != nil {
					t.Fatalf("%s: %v", u.key, err)
				}
				if !maps.Equal(a.counts, b.counts) || a.fp != b.fp {
					t.Errorf("%s: runs differ:\n%v %s\n%v %s", u.key, a.counts, a.fp, b.counts, b.fp)
				}
				if err := w.check(g, defaultSeed, u, a); err != nil {
					t.Errorf("%s: %v", u.key, err)
				}
			}
		})
	}
}

// cheapest keeps the paper-eval units that run in well under a second.
func cheapest(units []unit) []unit {
	var out []unit
	for _, u := range units {
		if u.key == "ablate-limitless" || u.key == "invoke" {
			out = append(out, u)
		}
	}
	return out
}

// TestStressCapturedCounts checks that a captured stress seed fills every
// counter the traced run reports, and that capture does not change the
// seed's outcome.
func TestStressCapturedCounts(t *testing.T) {
	w, _ := findWorkload("stress-lossy")
	u := w.prepare(defaultSeed, spans{})[0]
	plain, err := guard(u, false)
	if err != nil {
		t.Fatal(err)
	}
	captured, err := guard(u, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fp != captured.fp {
		t.Errorf("capture changed the outcome: %s vs %s", plain.fp, captured.fp)
	}
	for _, name := range stressCounters {
		if _, ok := captured.counts[name]; !ok {
			t.Errorf("captured counts lack %s", name)
		}
	}
	if captured.counts["net.packets"] == 0 || captured.counts["rel.retransmits"] == 0 {
		t.Errorf("a lossy seed should send packets and retransmit some: %v", captured.counts)
	}
}

// TestGoldenCoversEveryExperiment fails when an experiment is registered
// without a golden digest.
func TestGoldenCoversEveryExperiment(t *testing.T) {
	g, err := golden("paper-eval")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range bench.Experiments() {
		if _, ok := g[e.ID]; !ok {
			t.Errorf("no golden digest for experiment %s", e.ID)
		}
	}
}

// TestSeedsDeriveInputs checks that the seed decides the inputs of every
// seeded workload: the same seed gives the same units, another seed other
// ones.
func TestSeedsDeriveInputs(t *testing.T) {
	keys := func(w workload, seed uint64) string {
		var k []string
		for _, u := range w.prepare(seed, spans{}) {
			k = append(k, u.key)
		}
		return strings.Join(k, ",")
	}
	for _, w := range workloads {
		if keys(w, 7) != keys(w, 7) {
			t.Errorf("%s: seed 7 gives different units on two calls", w.name)
		}
		if same := keys(w, 7) == keys(w, 8); same != w.seedless {
			t.Errorf("%s: seeds 7 and 8 give the same units: %v, want %v", w.name, same, w.seedless)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric lists in this
// package and BENCHMARK.json in step.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []declared, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark declares %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark has %s (%s), BENCHMARK.json %s (%s)",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

func TestOwner(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.memclrNoHeapPointers", "memclr.s"}, {"runtime.mallocgc", "malloc.go"},
			{"alewife/internal/mem.NewStore", "/x/internal/mem/store.go"}}, "host.mem_store_share"},
		{[]frame{{"alewife/internal/mem.(*Ctrl).handle", "/x/internal/mem/ctrl.go"}}, "host.mem_share"},
		{[]frame{{"alewife/internal/mem.(*LiveChecker).event", "/x/internal/mem/live.go"}}, "host.check_share"},
		{[]frame{{"alewife/internal/cmmu.(*Reliable).Fire", "/x/internal/cmmu/reliable.go"}}, "host.rel_share"},
		{[]frame{{"alewife/internal/stress.CheckHistory", "/x/internal/stress/history.go"}}, "host.check_share"},
		{[]frame{{"alewife/internal/sim/fanout.Run.func1", "/x/internal/sim/fanout/fanout.go"}}, "host.sim_share"},
		{[]frame{{"runtime.mapassign_faststr", "map.go"},
			{"alewife/internal/stats.(*Set).Add", "/x/internal/stats/stats.go"}}, "host.stats_share"},
		{[]frame{{"runtime.gcDrain", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}}, "host.harness"},
		{[]frame{{"main.run", "/x/perfbench/main.go"}}, "host.harness"},
	}
	for _, c := range cases {
		if got := owner(c.stack); got != c.want {
			t.Errorf("owner(%s) = %s, want %s", c.stack[0].fn, got, c.want)
		}
	}
}

func TestRTKind(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.memmove", ""}, {"runtime.copystack", ""}, {"runtime.newstack", ""}}, "rt.stack_share"},
		{[]frame{{"runtime.memclrNoHeapPointers", ""}, {"runtime.mallocgc", ""}}, "rt.memclr_share"},
		{[]frame{{"runtime.nextFreeFast", ""}, {"runtime.mallocgc", ""}}, "rt.alloc_share"},
		{[]frame{{"runtime.futex", ""}, {"runtime.futexsleep", ""}}, "rt.chan_share"},
		{[]frame{{"internal/runtime/maps.(*Map).getWithKeySmall", ""}}, "rt.map_share"},
		{[]frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}}, "rt.gc_share"},
		// The kind is read only from the runtime frames at the leaf.
		{[]frame{{"alewife/internal/mem.(*Ctrl).handle", ""}, {"runtime.mallocgc", ""}}, ""},
	}
	for _, c := range cases {
		if got := rtKind(c.stack); got != c.want {
			t.Errorf("rtKind(%s) = %q, want %q", c.stack[0].fn, got, c.want)
		}
	}
}

// TestAttributeRealProfile profiles a stress seed with runtime/pprof and
// checks that the decoder charges the samples to simulator layers and
// that the owner shares sum to 1.
func TestAttributeRealProfile(t *testing.T) {
	w, _ := findWorkload("stress-lossy")
	units := w.prepare(defaultSeed, spans{})
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start, i := time.Now(), 0; time.Since(start) < 500*time.Millisecond; i++ {
		if _, err := guard(units[i%len(units)], false); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, o := range owners {
		sum += a.shares[o]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("owner shares sum to %v, want 1", sum)
	}
	if a.shares["host.harness"] > 0.5 {
		t.Errorf("%.0f%% of a stress run's samples found no simulator frame: %v", 100*a.shares["host.harness"], a.shares)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got < 4.59 || got > 4.61 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}
