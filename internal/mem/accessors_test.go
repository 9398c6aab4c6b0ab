package mem

import (
	"testing"

	"alewife/internal/sim"
)

func TestAddrLineMath(t *testing.T) {
	cases := []struct {
		a      Addr
		line   Addr
		offset int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 2, 0}, {3, 2, 1}, {7, 6, 1},
	}
	for _, c := range cases {
		if c.a.Line() != c.line || c.a.Offset() != c.offset {
			t.Errorf("addr %d: line %d offset %d, want %d/%d",
				c.a, c.a.Line(), c.a.Offset(), c.line, c.offset)
		}
	}
}

func TestStoreAccessors(t *testing.T) {
	s := NewStore(4, 512)
	if s.Nodes() != 4 || s.WordsPerNode() != 512 {
		t.Fatal("store geometry accessors wrong")
	}
	a := s.AllocOn(1, 2)
	s.WriteF(a, 2.5)
	if s.ReadF(a) != 2.5 {
		t.Fatal("float store accessors wrong")
	}
	bases := s.AllocStriped([]int{0, 2, 3}, 4)
	if len(bases) != 3 {
		t.Fatal("striped alloc wrong count")
	}
	for i, n := range []int{0, 2, 3} {
		if s.Home(bases[i]) != n {
			t.Fatalf("striped base %d homed on %d, want %d", i, s.Home(bases[i]), n)
		}
	}
}

// The store allocates a page on its first write: a word on a page never
// written reads 0 through both views, and writing one word leaves its
// neighbours, and every other page, reading 0.
func TestStoreUntouchedReadsZero(t *testing.T) {
	s := NewStore(4, 1<<12)
	for _, a := range []Addr{0, 511, 512, 3 << 12, 4<<12 - 1} {
		if s.Read(a) != 0 || s.ReadF(a) != 0 {
			t.Fatalf("untouched word %#x reads %d / %v, want 0", a, s.Read(a), s.ReadF(a))
		}
	}
	s.Write(1000, 7)
	s.WriteF(5000, -1.5)
	if s.Read(1000) != 7 || s.ReadF(5000) != -1.5 {
		t.Fatal("written words lost")
	}
	if s.Read(999) != 0 || s.Read(1001) != 0 || s.Read(4999) != 0 {
		t.Fatal("a write leaked into its neighbours")
	}
	written := 0
	for _, p := range s.pages {
		if p != nil {
			written++
		}
	}
	if written != 2 {
		t.Fatalf("%d pages allocated after writes to 2 pages", written)
	}
}

// Every access beyond the store panics, including one that lands on the
// tail of a last page the store does not fill (3 x 100 words: one page).
func TestStoreOutOfRangePanics(t *testing.T) {
	for _, s := range []*Store{NewStore(4, 1<<12), NewStore(3, 100)} {
		end := Addr(uint64(s.Nodes()) * s.WordsPerNode())
		s.Write(end-1, 1) // allocate the last page
		for name, access := range map[string]func(Addr){
			"Read":   func(a Addr) { s.Read(a) },
			"ReadF":  func(a Addr) { s.ReadF(a) },
			"Write":  func(a Addr) { s.Write(a, 1) },
			"WriteF": func(a Addr) { s.WriteF(a, 1) },
		} {
			for _, a := range []Addr{end, end + 1, end + 1<<20} {
				if !panics(func() { access(a) }) {
					t.Errorf("%s(%#x) on a %d-word store did not panic", name, a, end)
				}
			}
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestCacheAccessors(t *testing.T) {
	c := NewCache(8, 2)
	if c.Sets() != 8 || c.Ways() != 2 {
		t.Fatal("cache geometry accessors wrong")
	}
	c.Insert(0, Shared)
	c.Insert(16, Exclusive)
	if c.Resident() != 2 {
		t.Fatalf("resident = %d", c.Resident())
	}
	c.InvalidateAll()
	if c.Resident() != 0 {
		t.Fatal("invalidate-all incomplete")
	}
	for st, name := range map[LState]string{Invalid: "I", Shared: "S", Exclusive: "E", LState(9): "?"} {
		if st.String() != name {
			t.Fatalf("state %d string %q", st, st.String())
		}
	}
}

func TestFastPathsDirect(t *testing.T) {
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		if ctrl.FastRead(a) {
			t.Error("fast read hit on cold cache")
		}
		ctrl.Read(c, a)
		if !ctrl.FastRead(a) {
			t.Error("fast read missed on warm cache")
		}
		if ctrl.FastWrite(a) {
			t.Error("fast write hit on Shared line")
		}
		ctrl.Write(c, a)
		if !ctrl.FastWrite(a) {
			t.Error("fast write missed on Exclusive line")
		}
	})
}

func TestStartMissDirect(t *testing.T) {
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		tk := ctrl.StartMiss(a, Shared)
		if tk.Hit() {
			t.Fatal("cold StartMiss reported a hit")
		}
		tk.Wait(c)
		if !ctrl.StartMiss(a, Shared).Hit() {
			t.Fatal("warm shared StartMiss not a hit")
		}
		// Upgrade path.
		tk = ctrl.StartMiss(a, Exclusive)
		if tk.Hit() {
			t.Fatal("upgrade StartMiss reported a hit")
		}
		tk.Wait(c)
		if !ctrl.StartMiss(a, Exclusive).Hit() {
			t.Fatal("exclusive StartMiss not a hit after upgrade")
		}
	})
}

func TestStartMissJoinsOutstanding(t *testing.T) {
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		tk1 := ctrl.StartMiss(a, Shared)
		tk2 := ctrl.StartMiss(a, Shared)
		if tk1.Hit() || tk2.t == nil || tk2.t != tk1.t {
			t.Fatal("second StartMiss did not join the outstanding fill")
		}
		tk1.Wait(c)
	})
}

func TestStartMissPrefetchPenaltyGate(t *testing.T) {
	// Write after a landed shared prefetch gets a timed penalty gate.
	h := newHarness(2)
	a := h.fab.Store.AllocOn(1, 4)
	h.run(t, func(c *sim.Context) {
		ctrl := h.fab.Ctrls[0]
		ctrl.Prefetch(a, false)
		c.Sleep(300)
		s := c.Now()
		tk := ctrl.StartMiss(a, Exclusive)
		if tk.Hit() {
			t.Fatal("penalized write reported a free hit")
		}
		tk.Wait(c)
		if c.Now()-s != h.fab.P.PrefetchWritePenalty {
			t.Fatalf("penalty gate waited %d, want %d", c.Now()-s, h.fab.P.PrefetchWritePenalty)
		}
	})
}
