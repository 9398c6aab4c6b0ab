package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"alewife/internal/bench"
	"alewife/internal/explore"
	"alewife/internal/stats"
	"alewife/internal/stress"
)

// defaultSeed is the workload seed the exact-count goldens were recorded
// at. On any other seed the protocol oracles alone decide correctness.
const defaultSeed = 1

// Workload shapes. Changing any of these changes what the benchmark
// measures: re-record the goldens (--update-golden) and say so.
const (
	evalNodes = 64 // the paper's machine size

	stressSeeds = 32 // one pass of stress-lossy: the lossy smoke shape

	// One pass of explore: this many generated programs, each explored
	// for a fixed schedule budget small enough that few programs exhaust
	// their space first, so every unit does about the same work.
	exploreSeeds = 16
	exploreNodes = 8  // processors per explored program
	exploreOps   = 12 // operations per processor
	exploreLines = 3  // contended cache lines
	exploreRuns  = 300
)

//go:embed golden/*.txt
var goldenFS embed.FS

// A unit is one closed-loop step of a workload: an experiment, a stress
// seed or one exploration. run performs it and applies the oracles that
// hold on any seed; a non-nil error is one failed unit. The caller then
// compares the result's fingerprint with the golden entry under key.
type unit struct {
	key  string // golden key: experiment id or unit seed
	span string // per-layer span the unit's host time is charged to
	run  func(capture bool) (result, error)
}

// result is what one unit produced.
type result struct {
	fp     string // the output fields the golden pins
	counts counts
}

// counts are a unit's simulated work: host-independent numbers that must
// repeat exactly for the same inputs.
type counts map[string]int64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// A workload turns a seed into its fixed list of units. prepare
// generates the inputs, recording the spans it times; warmup builds the
// unit set-up runs once, untimed.
type workload struct {
	name  string
	nodes int // machine size of the workload, for the machine.new_s span
	// seedless workloads have the same units on every seed, so their
	// golden applies on every seed, not only the default one.
	seedless bool
	prepare  func(seed uint64, sp spans) []unit
	warmup   func() unit
}

var workloads = []workload{
	{name: "paper-eval", nodes: evalNodes, seedless: true, prepare: preparePaperEval, warmup: warmPaperEval},
	{name: "stress-lossy", nodes: stress.DefaultConfig(0).Nodes, prepare: prepareStressLossy, warmup: warmStressLossy},
	{name: "explore", nodes: exploreNodes, prepare: prepareExplore, warmup: warmExplore},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// golden reads golden/<name>.txt as whitespace-separated fields keyed by
// the first field of each line. Lines starting with # are comments.
func golden(name string) (map[string][]string, error) {
	b, err := goldenFS.ReadFile("golden/" + name + ".txt")
	if err != nil {
		return nil, err
	}
	g := make(map[string][]string)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		g[f[0]] = f[1:]
	}
	return g, sc.Err()
}

// check compares a unit's fingerprint with its golden entry. A missing
// entry is an error wherever the golden must cover the unit: at the
// default seed, and on every seed of a seedless workload.
func (w workload) check(g map[string][]string, seed uint64, u unit, r result) error {
	want, ok := g[u.key]
	switch {
	case !ok && (seed == defaultSeed || w.seedless):
		return fmt.Errorf("golden has no entry for %s", u.key)
	case ok && r.fp != strings.Join(want, " "):
		return fmt.Errorf("output (%s) differs from golden (%s)", r.fp, strings.Join(want, " "))
	}
	return nil
}

// splitmix64 derives decorrelated unit seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitSeeds returns n consecutive seeds from a base derived from the
// workload seed, the way alewife-stress walks -seeds from -seed.
func unitSeeds(seed, salt uint64, n int) []uint64 {
	base := splitmix64(seed ^ salt)
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// preparePaperEval lists every registered experiment at 64 nodes, in ID
// order, run serially: what alewife-bench -all prints. The evaluation has
// no random inputs, so the seed does not change it, and every output must
// match its golden digest byte for byte on every seed.
func preparePaperEval(uint64, spans) []unit {
	exps := bench.Experiments()
	units := make([]unit, len(exps))
	for i, e := range exps {
		units[i] = experimentUnit(e)
	}
	return units
}

func experimentUnit(e bench.Experiment) unit {
	return unit{
		key:  e.ID,
		span: "bench." + e.ID + "_s",
		run: func(bool) (result, error) {
			h := sha256.New()
			e.Run(bench.Config{Nodes: evalNodes, Parallel: 1}, h)
			return result{fp: hex.EncodeToString(h.Sum(nil))}, nil
		},
	}
}

// stressCounters are the global stats counters a captured stress run
// reports as simulated work counts.
var stressCounters = []string{
	stats.CacheHits, stats.CacheMisses, stats.ProtoMsgs, stats.ProtoInvals,
	stats.DirOverflows, stats.NetPackets, stats.NetPacketCycles, stats.MsgsSent,
	stats.RelRetransmits, stats.RelTimeouts,
}

const (
	stressSalt  = 0x57e55
	exploreSalt = 0xe4910e
)

// prepareStressLossy generates one coherence-fuzzer program per seed at
// stress.DefaultConfig, each to run over its own stress.LossFromSeed
// wires: the make stress-smoke-lossy shape.
func prepareStressLossy(seed uint64, sp spans) []unit {
	seeds := unitSeeds(seed, stressSalt, stressSeeds)
	t0 := time.Now()
	progs := make([][][]stress.Op, len(seeds))
	for i, s := range seeds {
		progs[i] = stress.Generate(stress.DefaultConfig(s))
	}
	sp.add("stress.generate_s", time.Since(t0))

	units := make([]unit, len(seeds))
	for i, s := range seeds {
		units[i] = stressUnit(s, progs[i])
	}
	return units
}

// stressUnit executes one seed's program. The seed must run clean under
// every stress oracle and execute its whole program; the golden pins its
// (ops, cycles).
func stressUnit(s uint64, prog [][]stress.Op) unit {
	return unit{
		key:  fmt.Sprintf("%#x", s),
		span: "stress.execute_s",
		run: func(capture bool) (result, error) {
			cfg := stress.DefaultConfig(s)
			cfg.NetFault = stress.LossFromSeed(s)
			cfg.Capture = capture
			res, err := stress.Execute(cfg, prog)
			if err != nil {
				return result{}, err
			}
			if res.Failed() {
				return result{}, fmt.Errorf("%d violations, first: %s", len(res.Violations), res.Violations[0])
			}
			if want := int64(stress.CountOps(prog)); res.TotalOps != want {
				return result{}, fmt.Errorf("executed %d ops, program has %d", res.TotalOps, want)
			}
			c := counts{"stress.ops": res.TotalOps, "stress.sim_cycles": int64(res.Cycles)}
			if capture {
				parseStats(res.StatsText, c)
			}
			return result{fp: fmt.Sprintf("%d %d", res.TotalOps, res.Cycles), counts: c}, nil
		},
	}
}

// parseStats copies the stressCounters out of a captured stats report
// ("name value" per line); counters the run never touched stay zero.
func parseStats(text string, c counts) {
	for _, name := range stressCounters {
		c[name] = 0
	}
	for _, line := range strings.Split(text, "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscan(line, &name, &v); err != nil {
			continue
		}
		if _, ok := c[name]; ok {
			c[name] = v
		}
	}
}

// prepareExplore lists one bounded exploration per generated program, on
// perfect wires.
func prepareExplore(seed uint64, _ spans) []unit {
	seeds := unitSeeds(seed, exploreSalt, exploreSeeds)
	units := make([]unit, len(seeds))
	for i, s := range seeds {
		units[i] = exploreUnit(s)
	}
	return units
}

// exploreUnit explores one program for the fixed schedule budget. No
// schedule may violate an oracle; the golden pins every Outcome count.
func exploreUnit(s uint64) unit {
	return unit{
		key:  fmt.Sprintf("%#x", s),
		span: "explore.explore_s",
		run: func(bool) (result, error) {
			out, err := explore.Explore(explore.Config{
				Stress:  stress.Config{Nodes: exploreNodes, Ops: exploreOps, Lines: exploreLines, Seed: s},
				MaxRuns: exploreRuns,
			})
			if err != nil {
				return result{}, err
			}
			if out.Found {
				return result{}, fmt.Errorf("violation after %d runs: %v", out.Runs, out.Result.Violations)
			}
			return result{
				fp: fmt.Sprintf("%d %d %d %d %d %t", out.Runs, out.ChoicePoints,
					out.SleepSkips, out.SleepPrunes, out.DedupPrunes, out.Exhausted),
				counts: counts{
					"explore.runs":          int64(out.Runs),
					"explore.choice_points": int64(out.ChoicePoints),
					"explore.dedup_prunes":  int64(out.DedupPrunes),
					"explore.sleep_prunes":  int64(out.SleepPrunes),
				},
			}, nil
		},
	}
}

// The warm-up units: the same unit on every seed, so set-up time does not
// depend on which inputs the seed drew.

func warmPaperEval() unit { return experimentUnit(bench.Experiments()[0]) }

func warmStressLossy() unit {
	s := unitSeeds(defaultSeed, stressSalt, 1)[0]
	return stressUnit(s, stress.Generate(stress.DefaultConfig(s)))
}

func warmExplore() unit { return exploreUnit(unitSeeds(defaultSeed, exploreSalt, 1)[0]) }
