// Command perfbench is the Alewife simulator's end-to-end benchmark. It
// drives one workload through the simulator's public entry points as a
// closed loop with one client: each unit (an experiment, a stress seed or
// an exploration) starts when the previous one finishes, all in this
// process, serially.
//
//	perfbench --workload paper-eval|stress-lossy|explore --seed N --seconds S --trace 0|1
//
// With --trace 0 it times the workload untraced and prints the end-to-end
// metrics; with --trace 1 it runs the workload again under a CPU profile
// and runtime counters and prints the per-layer metrics. Every unit's
// output is checked; a failed unit is counted, named and makes the run
// exit 1. The last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// README.md describes the workloads, the metrics and how to compare two
// commits on one host.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"alewife/internal/core"
	"alewife/internal/machine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// gomaxprocs pins the Go scheduler to one P. The simulator runs one
// context at a time, handing a baton between goroutines; with two Ps
// every handoff can become a cross-CPU futex wake, and on a 2-vCPU host
// that made the same stress seed's time swing by 18% between one-second
// windows, against 3% with one P.
const gomaxprocs = 1

// setupReps is the fewest times an untraced run sets the workload up; it
// reports the median.
const setupReps = 5

// machineReps is how many machines the machine.new_s span times.
const machineReps = 21

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-eval, stress-lossy or explore")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the exact-count goldens hold at the default")
	seconds := fs.Int("seconds", 10, "how long the timed loop runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	cpuprofile := fs.String("cpuprofile", "", "with --trace 1, also write the traced passes' CPU profile here")
	update := fs.String("update-golden", "", "run one pass at the default seed and write the workload's golden to this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload paper-eval|stress-lossy|explore [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	if *update != "" {
		if err := writeGolden(w, *update); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	runtime.GOMAXPROCS(gomaxprocs)
	limit := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(w, *seed, limit, *cpuprofile)
	} else {
		rep, err = runUntraced(w, *seed, limit)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintln(stdout, hostFingerprint())
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.tally.failed > 0 {
		return 1
	}
	return 0
}

// spans collects host durations per span name.
type spans map[string][]time.Duration

func (s spans) add(name string, d time.Duration) { s[name] = append(s[name], d) }

// tally counts units attempted and failed, naming each distinct failure
// once with how often it happened.
type tally struct {
	attempted, failed int
	failures          []string
	times             map[string]int
}

func (t *tally) fail(msg string) {
	t.failed++
	if t.times == nil {
		t.times = make(map[string]int)
	}
	if t.times[msg] == 0 {
		t.failures = append(t.failures, msg)
	}
	t.times[msg]++
}

// prepared is a workload set up for one seed.
type prepared struct {
	w      workload
	seed   uint64
	golden map[string][]string
	units  []unit
	tally  *tally
}

// setup loads the workload's golden, generates its inputs and runs its
// warm-up unit.
func setup(w workload, seed uint64, sp spans, t *tally) (*prepared, error) {
	g, err := golden(w.name)
	if err != nil {
		return nil, fmt.Errorf("load golden: %w", err)
	}
	s := &prepared{w: w, seed: seed, golden: g, units: w.prepare(seed, sp), tally: t}
	s.do(w.warmup(), false)
	return s, nil
}

// do runs one unit, checks it and returns its result and host time. An
// error, a golden mismatch or a panic counts as one failed unit.
//
// Every unit starts from a collected heap, untimed. One unit's garbage is
// then not charged to the next, and every unit starts with the same
// goroutine stack size: the runtime sizes new stacks from the stacks the
// last collection saw, so a collection that lands mid-simulation lets the
// following units skip most stack growth and run up to a third faster.
func (s *prepared) do(u unit, capture bool) (result, time.Duration) {
	runtime.GC()
	t0 := time.Now()
	r, err := guard(u, capture)
	d := time.Since(t0)
	if err == nil {
		err = s.w.check(s.golden, s.seed, u, r)
	}
	s.tally.attempted++
	if err != nil {
		s.tally.fail(fmt.Sprintf("%s %s: %v", s.w.name, u.key, err))
	}
	return r, d
}

// guard runs a unit, turning a panic into its error.
func guard(u unit, capture bool) (r result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return u.run(capture)
}

// runUntraced runs the workload's units round-robin until the time limit
// has passed and every unit has run at least once. It sets the workload up
// again before every pass, and at least setupReps times, so set-up is
// sampled across the run rather than in one burst.
func runUntraced(w workload, seed uint64, limit time.Duration) (*report, error) {
	t := &tally{}
	var setups []float64
	var s *prepared
	timedSetup := func() error {
		t0 := time.Now()
		var err error
		s, err = setup(w, seed, spans{}, t)
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}

	var samples [][]float64
	total := counts{}
	start := time.Now()
	for done := false; !done; {
		if err := timedSetup(); err != nil {
			return nil, err
		}
		if samples == nil {
			samples = make([][]float64, len(s.units))
		}
		for i, u := range s.units {
			r, d := s.do(u, false)
			samples[i] = append(samples[i], d.Seconds())
			total.add(r.counts)
			if done = time.Since(start) >= limit && len(samples[len(samples)-1]) > 0; done {
				break
			}
		}
	}
	wall := time.Since(start).Seconds()
	for len(setups) < setupReps {
		if err := timedSetup(); err != nil {
			return nil, err
		}
	}

	var evalS, evalMedian float64
	var all []float64
	for _, ss := range samples {
		evalS += quantile(ss, 0)
		evalMedian += median(ss)
		all = append(all, ss...)
	}
	rep := newReport(t, endToEnd)
	rep.set("setup_s", median(setups))
	rep.set("eval_s", evalS)
	rep.set("peak_rss_mb", peakRSSMB())
	rep.extra("eval_s_median", evalMedian, "s")
	rep.note("eval_s: sum over %d units of each unit's fastest host time; eval_s_median sums their medians; %d timed units in %.2f s",
		len(s.units), len(all), wall)
	rep.note("setup_s: median of %d set-ups (golden load, input generation, one warm-up unit)", len(setups))
	switch w.name {
	case "stress-lossy":
		p50, p90 := quantile(all, 0.5), quantile(all, 0.9)
		rep.extra("seed_ms_p50", p50*1e3, "ms")
		rep.extra("seed_ms_p90", p90*1e3, "ms")
		rep.extra("ops_per_s", float64(total["stress.ops"])/wall, "1/s")
		rep.note("seed_ms: %d samples, %d above p90", len(all), countAbove(all, p90))
	case "explore":
		rep.extra("runs_per_s", float64(total["explore.runs"])/wall, "1/s")
	}
	rep.extra("fail_frac", float64(t.failed)/float64(t.attempted), "ratio")
	return rep, nil
}

// runTraced sets the workload up once, times whole passes untraced for
// half the limit, then repeats as many passes under a CPU profile, the
// runtime counters and per-unit spans. Simulated work counts come from the
// traced passes (with stress capture on) and must repeat exactly in every
// pass.
func runTraced(w workload, seed uint64, limit time.Duration, cpuprofile string) (*report, error) {
	t := &tally{}
	sp := spans{}
	s, err := setup(w, seed, sp, t)
	if err != nil {
		return nil, err
	}

	pass := func(capture bool) (counts, spans) {
		c, ps := counts{}, spans{}
		for _, u := range s.units {
			r, d := s.do(u, capture)
			c.add(r.counts)
			ps.add(u.span, d)
		}
		return c, ps
	}

	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < limit/2 {
		pass(false)
		n++
	}
	untraced := time.Since(start)

	before := readRuntime()
	stacks := startStackSampler(2 * time.Millisecond)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	start = time.Now()
	var work counts
	for i := 0; i < n; i++ {
		c, ps := pass(true)
		for name, ds := range ps {
			var sum time.Duration
			for _, d := range ds {
				sum += d
			}
			sp.add(name, sum)
		}
		if i == 0 {
			work = c
		} else if !maps.Equal(work, c) {
			t.fail(fmt.Sprintf("%s: simulated work counts differ between passes", w.name))
		}
	}
	tracedWall := time.Since(start)
	pprof.StopCPUProfile()
	stackPeak := stacks.finish()
	after := readRuntime()

	for i := 0; i < machineReps; i++ {
		t0 := time.Now()
		core.NewDefault(machine.New(machine.DefaultConfig(w.nodes)), core.ModeHybrid)
		sp.add("machine.new_s", time.Since(t0))
	}

	if cpuprofile != "" {
		if err := os.WriteFile(cpuprofile, prof.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("write CPU profile: %w", err)
		}
	}
	attr, err := attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}

	rep := newReport(t, perLayer)
	for name, v := range attr.shares {
		rep.set(name, v)
	}
	perPass := float64(n)
	rep.set("gc.cycles", float64(after.gcCycles-before.gcCycles)/perPass)
	rep.set("gc.cpu_s", (after.gcCPU-before.gcCPU)/perPass)
	rep.set("alloc.bytes", float64(after.allocBytes-before.allocBytes)/perPass)
	rep.set("alloc.objects", float64(after.allocObjs-before.allocObjs)/perPass)
	rep.set("sched.wait_p50_us", schedQuantile(before, after, 0.5))
	rep.set("sched.wait_p99_us", schedQuantile(before, after, 0.99))
	rep.set("stack.bytes", float64(stackPeak))
	for name, ds := range sp {
		rep.set(name, medianDuration(ds))
	}
	setWork(rep, work)
	rep.set("trace.overhead_ratio", tracedWall.Seconds()/untraced.Seconds())

	var ownerSum float64
	for _, o := range owners {
		ownerSum += attr.shares[o]
	}
	rep.note("traced: %d passes of %d units, %.2f s untraced, %.2f s traced, %d CPU samples, host.* shares sum to %.4f",
		n, len(s.units), untraced.Seconds(), tracedWall.Seconds(), attr.samples, ownerSum)
	rep.note("per-pass: gc.*, alloc.*, stress.*, explore.* and the counts below are per pass of %d units; spans are medians", len(s.units))
	if z := rep.zeros(); len(z) > 0 {
		rep.note("zero on this workload (not exercised, or no CPU samples): %s", strings.Join(z, " "))
	}
	return rep, nil
}

// setWork turns one pass's simulated work counts into the per-layer
// count metrics.
func setWork(rep *report, c counts) {
	f := func(name string) float64 { return float64(c[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, name := range []string{"stress.ops", "stress.sim_cycles", "proto.messages",
		"proto.invalidations", "dir.limitless_overflows", "net.packets", "cmmu.msgs_sent",
		"rel.retransmits", "rel.timeouts", "explore.runs", "explore.choice_points",
		"explore.sleep_prunes"} {
		rep.set(name, f(name))
	}
	rep.set("cache.hit_ratio", ratio(f("cache.hits"), f("cache.hits")+f("cache.misses")))
	rep.set("net.packet_cycles_mean", ratio(f("net.packet_cycles"), f("net.packets")))
	rep.set("rel.goodput_ratio", ratio(f("net.packets")-f("rel.retransmits"), f("net.packets")))
	rep.set("explore.choices_per_run", ratio(f("explore.choice_points"), f("explore.runs")))
	rep.set("explore.dedup_hits_per_run", ratio(f("explore.dedup_prunes"), f("explore.runs")))
}

// report is a run's metrics, in the order they were added, plus notes.
// The declared metrics go into the JSON result line; extras only into the
// text report.
type report struct {
	tally    *tally
	names    []string
	values   map[string]float64
	units    map[string]string
	declared map[string]bool
	notes    []string
}

// newReport starts a report holding every declared metric at 0.
func newReport(t *tally, ds []declared) *report {
	r := &report{tally: t, values: map[string]float64{}, units: map[string]string{}, declared: map[string]bool{}}
	for _, d := range ds {
		r.extra(d.name, 0, d.unit)
		r.declared[d.name] = true
	}
	return r
}

// extra adds a metric that only the text report shows.
func (r *report) extra(name string, v float64, unit string) {
	r.names = append(r.names, name)
	r.values[name], r.units[name] = v, unit
}

// set overwrites a declared metric's value; it panics on a name the
// benchmark does not declare, which is a bug in this file.
func (r *report) set(name string, v float64) {
	if !r.declared[name] {
		panic("perfbench: undeclared metric " + name)
	}
	r.values[name] = v
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) zeros() []string {
	var z []string
	for _, name := range r.names {
		if r.values[name] == 0 {
			z = append(z, name)
		}
	}
	return z
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the text report and, last, the JSON result line.
func (r *report) print(w io.Writer) error {
	res := jsonResult{Correct: r.tally.failed == 0, Attempted: r.tally.attempted,
		Failed: r.tally.failed, Metrics: map[string]jsonMetric{}}
	for _, name := range r.names {
		fmt.Fprintf(w, "metric %-28s %16.6g %s\n", name, r.values[name], r.units[name])
		if r.declared[name] {
			res.Metrics[name] = jsonMetric{r.values[name], r.units[name]}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintf(w, "units: attempted=%d failed=%d\n", r.tally.attempted, r.tally.failed)
	for _, f := range r.tally.failures {
		fmt.Fprintf(w, "FAILED (%dx): %s\n", r.tally.times[f], f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeGolden runs one pass of the workload at the default seed and
// writes every unit's fingerprint to dir/<workload>.txt.
func writeGolden(w workload, dir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s golden at seed %d: written by perfbench --update-golden\n", w.name, defaultSeed)
	units := w.prepare(defaultSeed, spans{})
	lines := make([]string, 0, len(units))
	for _, u := range units {
		r, err := guard(u, false)
		if err != nil {
			return fmt.Errorf("%s %s: %w", w.name, u.key, err)
		}
		lines = append(lines, u.key+" "+r.fp)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(&b, l)
	}
	return os.WriteFile(filepath.Join(dir, w.name+".txt"), []byte(b.String()), 0o644)
}

// hostFingerprint names what wall-clock numbers depend on: they compare
// only between runs with the same fingerprint.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: go=%s nproc=%d GOMAXPROCS=%d cpu=%q",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu)
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolating linearly between the
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
