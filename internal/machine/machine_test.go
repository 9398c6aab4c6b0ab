package machine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mem"
	"alewife/internal/sim"
)

func TestElapseAndFlush(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	var done sim.Time
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Elapse(100)
		p.Elapse(50)
		p.Flush()
		done = p.Ctx.Now()
	})
	m.Run()
	if done != 150 {
		t.Fatalf("elapsed %d, want 150", done)
	}
}

func TestSharedMemoryValueTransfer(t *testing.T) {
	m := machine.New(machine.DefaultConfig(4))
	a := m.Store.AllocOn(2, 2)
	var got uint64
	m.Spawn(0, 0, "writer", func(p *machine.Proc) {
		p.Write(a, 31337)
	})
	m.Spawn(1, 0, "reader", func(p *machine.Proc) {
		p.Elapse(1000) // well after the write
		got = p.Read(a)
	})
	m.Run()
	if got != 31337 {
		t.Fatalf("read %d, want 31337", got)
	}
}

func TestFloatViews(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(1, 2)
	var got float64
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.WriteF(a, 3.25)
		got = p.ReadF(a)
	})
	m.Run()
	if got != 3.25 {
		t.Fatalf("float round trip = %v", got)
	}
}

func TestHitsAreRunAhead(t *testing.T) {
	// After the first miss, repeated loads of the same line must cost hit
	// cycles, not miss latency.
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(1, 2)
	var missLat, hitLat sim.Time
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Flush()
		s := p.Now()
		p.Read(a)
		p.Flush()
		missLat = p.Now() - s
		s = p.Now()
		for i := 0; i < 10; i++ {
			p.Read(a)
		}
		p.Flush()
		hitLat = p.Now() - s
	})
	m.Run()
	if hitLat >= missLat {
		t.Fatalf("10 hits (%d) cost as much as one miss (%d)", hitLat, missLat)
	}
	if hitLat != 10*m.Cfg.Mem.CacheHit {
		t.Fatalf("hit cost %d, want %d", hitLat, 10*m.Cfg.Mem.CacheHit)
	}
}

func TestFetchAddAtomicAcrossNodes(t *testing.T) {
	const n, k = 8, 50
	m := machine.New(machine.DefaultConfig(n))
	a := m.Store.AllocOn(0, 2)
	for i := 0; i < n; i++ {
		i := i
		m.Spawn(i, sim.Time(i), "adder", func(p *machine.Proc) {
			for j := 0; j < k; j++ {
				p.FetchAdd(a, 1)
				p.Elapse(uint64(1 + (i+j)%7))
			}
		})
	}
	m.Run()
	if got := m.Store.Read(a); got != n*k {
		t.Fatalf("counter = %d, want %d", got, n*k)
	}
}

func TestTestSetMutualExclusion(t *testing.T) {
	// Two procs contend on a test&set lock guarding a non-atomic
	// read-modify-write; the invariant catches lost updates.
	const k = 30
	m := machine.New(machine.DefaultConfig(2))
	lock := m.Store.AllocOn(0, 2)
	counter := m.Store.AllocOn(0, 2)
	body := func(p *machine.Proc) {
		for j := 0; j < k; j++ {
			for p.TestSet(lock) != 0 {
				p.Elapse(5)
			}
			v := p.Read(counter)
			p.Elapse(3)
			p.Write(counter, v+1)
			p.Write(lock, 0)
		}
	}
	m.Spawn(0, 0, "a", body)
	m.Spawn(1, 0, "b", body)
	m.Run()
	if got := m.Store.Read(counter); got != 2*k {
		t.Fatalf("counter = %d, want %d (lost updates)", got, 2*k)
	}
}

func TestCompareSwap(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	a := m.Store.AllocOn(0, 2)
	var first, second bool
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Write(a, 5)
		first = p.CompareSwap(a, 5, 6)
		second = p.CompareSwap(a, 5, 7)
	})
	m.Run()
	if !first || second {
		t.Fatalf("CAS results %v/%v, want true/false", first, second)
	}
	if got := m.Store.Read(a); got != 6 {
		t.Fatalf("value = %d, want 6", got)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	// Sum a remote array with and without prefetching; prefetch must be
	// meaningfully faster (this is the accum mechanism from the paper).
	sum := func(prefetch bool) sim.Time {
		m := machine.New(machine.DefaultConfig(4))
		const words = 256
		arr := m.Store.AllocOn(3, words)
		var took sim.Time
		m.Spawn(0, 0, "accum", func(p *machine.Proc) {
			p.Flush()
			start := p.Now()
			var s uint64
			for i := 0; i < words; i++ {
				if prefetch && i%int(mem.LineWords) == 0 {
					ahead := i + 4*int(mem.LineWords)
					if ahead < words {
						p.Prefetch(arr+mem.Addr(ahead), false)
					}
				}
				s += p.Read(arr + mem.Addr(i))
				p.Elapse(1)
			}
			p.Flush()
			took = p.Now() - start
		})
		m.Run()
		return took
	}
	plain := sum(false)
	pf := sum(true)
	t.Logf("accum 256 words: plain=%d prefetch=%d cycles", plain, pf)
	if pf >= plain {
		t.Fatalf("prefetch (%d) not faster than plain (%d)", pf, plain)
	}
	if float64(pf) > 0.7*float64(plain) {
		t.Fatalf("prefetch hides too little: %d vs %d", pf, plain)
	}
}

func TestMicros(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	if got := m.Micros(33); got != 1.0 {
		t.Fatalf("33 cycles at 33 MHz = %v µs, want 1", got)
	}
}

// Every Config field that cannot build a machine comes back from Validate
// as an error naming it, and New panics with that same error rather than
// building a machine with no memory or failing deeper in the stack.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*machine.Config)
		want string // substring of the error; "" means valid
	}{
		{"default", func(c *machine.Config) {}, ""},
		{"zero-nodes", func(c *machine.Config) { c.Nodes = 0 }, "0 nodes"},
		{"negative-nodes", func(c *machine.Config) { c.Nodes = -3 }, "-3 nodes"},
		{"zero-words", func(c *machine.Config) { c.WordsPerNode = 0 }, "WordsPerNode is 0"},
		{"zero-sets", func(c *machine.Config) { c.CacheSets = 0 }, "CacheSets is 0"},
		{"sets-not-power-of-two", func(c *machine.Config) { c.CacheSets = 24 }, "CacheSets is 24"},
		{"negative-sets", func(c *machine.Config) { c.CacheSets = -4 }, "CacheSets is -4"},
		{"zero-ways", func(c *machine.Config) { c.CacheWays = 0 }, "CacheWays is 0"},
		{"negative-ways", func(c *machine.Config) { c.CacheWays = -1 }, "CacheWays is -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig(2)
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v, want nil", err)
				}
				machine.New(cfg)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: %v, want error containing %q", err, tc.want)
			}
			defer func() {
				if e, ok := recover().(error); !ok || e.Error() != err.Error() {
					t.Fatalf("New panicked with %v, want %v", e, err)
				}
			}()
			machine.New(cfg)
			t.Fatal("New accepted an invalid config")
		})
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	m.Spawn(0, 0, "stuck", func(p *machine.Proc) {
		p.Block() // nobody will wake it
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	m.Run()
}

func TestStolenCyclesDrainAtFlush(t *testing.T) {
	// Directly inject stolen cycles and check the next flush pays them.
	m := machine.New(machine.DefaultConfig(1))
	var done sim.Time
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Elapse(10)
		p.Flush()
		m.StealCycles(0, 40)
		p.Elapse(5)
		p.Flush()
		done = p.Ctx.Now()
	})
	m.Run()
	if done != 55 {
		t.Fatalf("finished at %d, want 55 (10+40+5)", done)
	}
}

// Context names are formatted only when read, and read as they always have:
// "n<node>:<name>", with SpawnNumbered's number appended. A deadlock report
// names the stuck contexts that way, and ends them before it panics.
func TestContextNames(t *testing.T) {
	base := runtime.NumGoroutine()
	m := machine.New(machine.DefaultConfig(4))
	p := m.Spawn(2, 0, "worker", func(p *machine.Proc) {})
	q := m.SpawnNumbered(3, 0, "thr", 42, func(p *machine.Proc) { p.Block() })
	var hw []string
	hwBody := func(c *machine.MPContext) {
		c.Elapse(10)
		hw = append(hw, c.P.Ctx.Name())
	}
	m.SpawnMulti(1, 0, []func(*machine.MPContext){hwBody, hwBody})
	for _, tc := range []struct {
		ctx  *sim.Context
		want string
	}{{p.Ctx, "n2:worker"}, {q.Ctx, "n3:thr42"}} {
		if got := tc.ctx.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		m.Run()
	}()
	if want := "machine: deadlock — 1 contexts still blocked with no pending events: [ctx(n3:thr42,blocked)]"; msg != want {
		t.Fatalf("deadlock report %q, want %q", msg, want)
	}
	if fmt.Sprint(hw) != "[n1:hw0 n1:hw1]" {
		t.Fatalf("hardware context names %v, want [n1:hw0 n1:hw1]", hw)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the deadlocked run, %d before", n, base)
	}
}

// Building a 64-node machine allocates its caches, directories and network,
// not its 32 MB of simulated memory: the store allocates a 4 KB page on the
// page's first write. (The store alone was 32 MB of the 40 MB a build took.)
func TestNewMachineBytes(t *testing.T) {
	const limit = 8 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := machine.New(machine.DefaultConfig(64))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("machine.New(DefaultConfig(64)) allocated %d bytes, want <= %d", got, limit)
	}
}
