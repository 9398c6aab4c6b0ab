package stress

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alewife/internal/cmmu"
	"alewife/internal/mesh"
	"alewife/internal/stats"
	"alewife/internal/trace"
)

// lossyConfig is the goldenConfig counterpart for the unreliable-network
// regime: same adversarial machine, wires derived from the seed.
func lossyConfig(seed uint64) Config {
	cfg := goldenConfig(seed)
	cfg.NetFault = LossFromSeed(seed)
	return cfg
}

func TestLossFromSeedPureAndDecorrelated(t *testing.T) {
	a, b := LossFromSeed(9), LossFromSeed(9)
	if *a != *b {
		t.Fatalf("same seed, different regimes: %+v vs %+v", a, b)
	}
	if c := LossFromSeed(10); *a == *c {
		t.Fatal("different seeds produced identical loss regimes")
	}
	for s := uint64(0); s < 64; s++ {
		ft := LossFromSeed(s)
		for name, r := range map[string]float64{"drop": ft.Drop, "dup": ft.Dup, "reorder": ft.Reorder} {
			if r < 0.001 || r > 0.021 {
				t.Fatalf("seed %d: %s rate %.4f outside the recovery-sized band", s, name, r)
			}
		}
		if ft.Seed == 0 {
			t.Fatalf("seed %d: zero fault-schedule seed", s)
		}
	}
}

// TestLossyCleanRuns is the fuzz sweep: across seeds, a machine whose wires
// drop, duplicate and reorder must still satisfy every oracle the perfect
// machine does — I1-I5 live invariants, delivery discipline, per-location
// SC, quiescence (memory and reliability), counter totals.
func TestLossyCleanRuns(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		res := mustRun(t, lossyConfig(seed))
		if res.Failed() {
			t.Fatalf("seed %d under loss: %v", seed, res.Violations)
		}
		// The wires must demonstrably have misbehaved, and the sublayer
		// must demonstrably have recovered, or this proved nothing.
		for _, c := range []string{stats.NetFaultDrops, stats.RelRetransmits, stats.RelAcks} {
			if !strings.Contains(res.StatsText, c) {
				t.Fatalf("seed %d: counter %s never fired:\n%s", seed, c, res.StatsText)
			}
		}
	}
}

// TestLossyGoldenDeterminism pins a lossy run the way golden_test.go pins
// the fault-free ones: full history, trace and stats fingerprints, plus the
// Chrome export fingerprint (whose event stream includes the new
// retransmit/dup-drop kinds), byte-identical across processes.
func TestLossyGoldenDeterminism(t *testing.T) {
	res := mustRun(t, lossyConfig(0x1))
	if res.Failed() {
		t.Fatalf("lossy run failed:\n%s", res.Report())
	}
	var chrome bytes.Buffer
	if err := trace.ChromeJSON(&chrome, res.TraceEvents); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"retransmit", "dup-drop"} {
		if !strings.Contains(chrome.String(), kind) {
			t.Fatalf("lossy Chrome export carries no %q events", kind)
		}
	}
	got := render(res) + fmt.Sprintf("chrome fnv1a %#016x\n", fnv1a(0, chrome.String()))

	path := filepath.Join("testdata", "golden_lossy_seed_0x1.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to capture): %v", err)
	}
	if got != string(want) {
		t.Errorf("lossy run diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			path, clip(got), clip(string(want)))
	}
}

// TestLossyRerunStable: two lossy runs in one process are bit-identical —
// fault injection and recovery add no hidden state or iteration-order
// dependence. make test runs this under -race.
func TestLossyRerunStable(t *testing.T) {
	a, b := mustRun(t, lossyConfig(0x2a)), mustRun(t, lossyConfig(0x2a))
	if render(a) != render(b) {
		t.Fatal("same-seed lossy reruns diverged: fault injection is nondeterministic")
	}
}

// TestReliabilityMutationsCaught seeds one bug at a time into the recovery
// machinery; every one must be caught by an oracle. This is the regression
// suite for the reliability sublayer's own checking, the RelFault
// counterpart of TestMutationsCaught.
func TestReliabilityMutationsCaught(t *testing.T) {
	cases := []struct {
		name  string
		net   *mesh.NetFault // nil forces the sublayer over perfect wires
		rel   *cmmu.RelFault
		wants string // substring of some violation ("" = any)
	}{
		// Acks never sent: the sender retransmits into silence until the
		// retry budget declares the pair dead.
		{"drop-ack", nil, &cmmu.RelFault{DropAck: true}, "retry budget"},
		// Stale (already-delivered) packets re-delivered: duplicated
		// protocol messages corrupt coherence state; the live checkers,
		// history checker or a protocol sanity panic must object.
		{"accept-stale", &mesh.NetFault{Seed: 3, Dup: 0.05}, &cmmu.RelFault{AcceptStale: true}, ""},
		// Dedup boundary off by one: the next expected packet is eaten as
		// a duplicate, so the pair can never advance.
		{"dedup-off-by-one", nil, &cmmu.RelFault{DedupOffByOne: true}, "retry budget"},
		// Timeouts fire but never resend: a dropped packet stays lost and
		// the machine deadlocks (or fails the reliability quiescence sweep).
		{"no-retransmit", &mesh.NetFault{Seed: 3, Drop: 0.02}, &cmmu.RelFault{NoRetransmit: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := small(1)
			cfg.NetFault = tc.net
			cfg.RelFault = tc.rel
			res := mustRun(t, cfg)
			if !res.Failed() {
				t.Fatal("broken reliability sublayer not caught")
			}
			if tc.wants != "" {
				found := false
				for _, v := range res.Violations {
					if strings.Contains(v, tc.wants) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no violation mentions %q; got %v", tc.wants, res.Violations)
				}
			}
			t.Logf("caught at cycle %d: %s", res.FirstAt, res.Violations[0])
		})
	}
}

// TestShrinkPreservesNetFaultSchedule: shrinking a failure found under loss
// re-executes candidates with the same Config, so the fault schedule rides
// along and the shrunk program still fails for the original reason.
func TestShrinkPreservesNetFaultSchedule(t *testing.T) {
	cfg := small(1)
	cfg.NetFault = LossFromSeed(cfg.Seed)
	cfg.RelFault = &cmmu.RelFault{NoRetransmit: true} // loss with broken recovery
	full := Generate(cfg)
	prog, res := mustShrink(t, cfg, full, 60)
	if !res.Failed() {
		t.Fatal("shrunk program no longer fails")
	}
	if CountOps(prog) >= CountOps(full) {
		t.Fatalf("shrink did not reduce the program: %d -> %d ops", CountOps(full), CountOps(prog))
	}
	// Replaying the shrunk program under the same config reproduces the
	// identical first violation at the identical cycle: the net-fault
	// schedule was preserved, not resampled.
	re := mustExecute(t, cfg, prog)
	if !re.Failed() || re.FirstAt != res.FirstAt || re.Violations[0] != res.Violations[0] {
		t.Fatalf("shrunk repro drifted:\n was %d: %v\n now %d: %v",
			res.FirstAt, res.Violations, re.FirstAt, re.Violations)
	}
}
