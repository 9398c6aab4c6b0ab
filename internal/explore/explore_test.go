package explore

import (
	"strings"
	"testing"
)

// A clean protocol must survive every schedule the explorer can reach: no
// oracle fires on any interleaving, and the bounded space is actually
// covered (the frontier empties before the run budget).
func TestCleanConfigCoversSpace(t *testing.T) {
	cfg := Config{MaxRuns: 2000}
	cfg.Stress.Seed = 7
	cfg.Stress.Nodes = 3
	cfg.Stress.Ops = 8
	cfg.Stress.Lines = 2
	out, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Found {
		t.Fatalf("clean config violated on some schedule:\n%s", out.Result.Report())
	}
	if !out.Exhausted {
		t.Fatalf("bounded space not covered in %d runs", out.Runs)
	}
	if out.Runs == 0 || out.ChoicePoints == 0 {
		t.Fatalf("degenerate exploration: %+v", out)
	}
}

// The prunings must be reductions, not mutilations: with POR and dedup
// disabled the explorer covers the same bounded space the slow way, and
// still finds no violation; with them enabled it needs strictly fewer runs.
func TestPruningsReduceRuns(t *testing.T) {
	base := Config{MaxRuns: 4000, MaxDepth: 40}
	base.Stress.Seed = 7
	base.Stress.Nodes = 3
	base.Stress.Ops = 8
	base.Stress.Lines = 2

	full, err := Explore(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.NoPOR, slow.NoDedup = true, true
	exhaustive, err := Explore(slow)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]Outcome{"pruned": full, "exhaustive": exhaustive} {
		if out.Found {
			t.Fatalf("%s: violation on clean config:\n%s", name, out.Result.Report())
		}
		if !out.Exhausted {
			t.Fatalf("%s: space not covered", name)
		}
	}
	if full.Runs >= exhaustive.Runs {
		t.Errorf("prunings saved nothing: %d runs pruned vs %d exhaustive", full.Runs, exhaustive.Runs)
	}
	if full.DedupPrunes == 0 {
		t.Error("state-digest dedup never fired")
	}
	if exhaustive.SleepSkips != 0 || exhaustive.DedupPrunes != 0 {
		t.Errorf("NoPOR/NoDedup still pruned: %+v", exhaustive)
	}
}

// Replay is the whole point of the trace: the same steps over the same
// config must reproduce the identical run, report byte for byte, and the
// canonical executed step list must be stable across replays. The mutation
// is chosen to fail via a checker violation rather than a protocol panic —
// panic reports embed the Go stack capture, whose goroutine IDs and
// addresses vary run to run even when the simulation itself is identical.
func TestReplayDeterministic(t *testing.T) {
	cfg := Config{MaxRuns: 600, FaultPackets: 6, ShrinkBudget: -1}
	cfg.Stress.Seed = 1
	cfg.Stress.Nodes = 3
	cfg.Stress.Ops = 10
	cfg.Stress.Lines = 2
	cfg.Stress.Mix = []int{2, 2, 0, 0, 10, 4, 4, 2, 2}
	Mutations["no-retransmit"](&cfg.Stress)
	out, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || len(out.Trace) == 0 {
		t.Fatalf("wanted a nonempty counterexample, got found=%v trace=%v", out.Found, out.Trace)
	}
	res1, steps1, err := Replay(cfg, out.Trace)
	if err != nil {
		t.Fatal(err)
	}
	res2, steps2, err := Replay(cfg, out.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Failed() {
		t.Fatal("replayed counterexample did not fail")
	}
	if res1.Report() != res2.Report() {
		t.Fatalf("replay reports differ:\n--- 1 ---\n%s--- 2 ---\n%s", res1.Report(), res2.Report())
	}
	if len(steps1) != len(steps2) {
		t.Fatalf("executed step lists differ: %d vs %d", len(steps1), len(steps2))
	}
	for i := range steps1 {
		if steps1[i] != steps2[i] {
			t.Fatalf("step %d differs: %v vs %v", i, steps1[i], steps2[i])
		}
	}
}

// A trace that no longer lines up with the run's choice points — a pick
// out of range, or the wrong kind of point — must surface as a divergence
// error, never silently replay some other schedule.
func TestReplayDivergence(t *testing.T) {
	cfg := Config{}
	cfg.Stress.Seed = 7
	bad := []Step{{Pick: 97, N: 98}}
	if _, _, err := Replay(cfg, bad); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("out-of-range pick: err=%v, want divergence", err)
	}
	bad = []Step{{Fault: true, Pick: 1, N: 3}}
	if _, _, err := Replay(cfg, bad); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("fault step with no fault branching: err=%v, want divergence", err)
	}
}

// An invalid underlying stress config must come back as the validation
// error, from both entry points.
func TestExploreRejectsBadConfig(t *testing.T) {
	cfg := Config{}
	cfg.Stress.Mix = []int{1, 2}
	if _, err := Explore(cfg); err == nil || !strings.Contains(err.Error(), "want 9") {
		t.Fatalf("Explore: err=%v, want mix rejection", err)
	}
	if _, _, err := Replay(cfg, nil); err == nil || !strings.Contains(err.Error(), "want 9") {
		t.Fatalf("Replay: err=%v, want mix rejection", err)
	}
}

// A negative bound is a mistake, not a request for the default: both entry
// points reject it before defaults are applied.
func TestExploreRejectsNegativeBounds(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"depth":        func(c *Config) { c.MaxDepth = -1 },
		"runs":         func(c *Config) { c.MaxRuns = -1 },
		"width":        func(c *Config) { c.MaxWidth = -1 },
		"faultpackets": func(c *Config) { c.FaultPackets = -1 },
	} {
		var cfg Config
		set(&cfg)
		if _, err := Explore(cfg); err == nil || !strings.Contains(err.Error(), "negative bound") {
			t.Errorf("%s: Explore err=%v, want negative-bound rejection", name, err)
		}
		if _, _, err := Replay(cfg, nil); err == nil || !strings.Contains(err.Error(), "negative bound") {
			t.Errorf("%s: Replay err=%v, want negative-bound rejection", name, err)
		}
	}
}

// ShrinkTrace on a passing trace is an error; on a failing one it must
// return a trace no longer than the input that still fails.
func TestShrinkTrace(t *testing.T) {
	cfg := Config{MaxRuns: 600, FaultPackets: 6, ShrinkBudget: -1}
	cfg.Stress.Seed = 1
	cfg.Stress.Nodes = 3
	cfg.Stress.Ops = 10
	cfg.Stress.Lines = 2
	cfg.Stress.Mix = []int{2, 2, 0, 0, 10, 4, 4, 2, 2}

	if _, _, err := ShrinkTrace(cfg, nil, 10); err != errNotFailing {
		t.Fatalf("shrinking a passing trace: err=%v, want errNotFailing", err)
	}

	Mutations["no-retransmit"](&cfg.Stress)
	out, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatal("no counterexample to shrink")
	}
	small, res, err := ShrinkTrace(cfg, out.Trace, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) > len(out.Trace) {
		t.Fatalf("shrink grew the trace: %d -> %d", len(out.Trace), len(small))
	}
	if !res.Failed() {
		t.Fatal("shrunk trace does not fail")
	}
	if got, _, err := Replay(cfg, small); err != nil || !got.Failed() {
		t.Fatalf("shrunk trace does not replay to a failure: err=%v", err)
	}
}

// The stress-layer glue: the explorer must leave the caller's config
// intact (it copies before installing hooks) and force the ideal network.
func TestExploreDoesNotMutateConfig(t *testing.T) {
	cfg := Config{MaxRuns: 5}
	cfg.Stress.Seed = 3
	before := cfg.Stress
	if _, err := Explore(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Stress.Hook != nil || cfg.Stress.NetFault != before.NetFault {
		t.Fatal("Explore mutated the caller's stress config")
	}
}
