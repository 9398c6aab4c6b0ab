package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestLadderWindowWrap schedules events across several near-window laps so
// the bucket ring wraps; order must stay strictly (at, seq).
func TestLadderWindowWrap(t *testing.T) {
	e := NewEngine()
	var got []Time
	var chain func()
	hops := 0
	chain = func() {
		got = append(got, e.Now())
		hops++
		if hops < 10 {
			e.After(ladderWindow-1, chain)
		}
	}
	e.After(1, chain)
	e.Run()
	if len(got) != 10 {
		t.Fatalf("ran %d hops, want 10", len(got))
	}
	for i, at := range got {
		want := Time(1 + i*(ladderWindow-1))
		if at != want {
			t.Fatalf("hop %d at %d, want %d", i, at, want)
		}
	}
}

// TestLadderOverflowMigration mixes far-future timers with near events at
// the same eventual timestamps: the overflow record was scheduled first, so
// it must fire first when the times collide.
func TestLadderOverflowMigration(t *testing.T) {
	e := NewEngine()
	var order []int
	const far = ladderWindow * 3
	e.At(far, func() { order = append(order, 0) }) // overflow tier
	e.At(far-ladderWindow+10, func() {
		// The cursor is now close enough that `far` is inside the near
		// window, but the lower-seq record is still parked in overflow.
		// This push must drain it into the bucket first (eager migration)
		// so the two fire in seq order.
		e.At(far, func() { order = append(order, 1) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("overflow/near same-time order = %v, want [0 1]", order)
	}
	if e.Now() != far {
		t.Fatalf("clock = %d, want %d", e.Now(), far)
	}
}

// TestLadderEmptyJump verifies the cursor jumps across a long dead zone to a
// lone far-future event instead of scanning it bucket by bucket.
func TestLadderEmptyJump(t *testing.T) {
	e := NewEngine()
	fired := Time(0)
	e.At(10*ladderWindow+7, func() { fired = e.Now() })
	e.Run()
	if fired != 10*ladderWindow+7 {
		t.Fatalf("fired at %d", fired)
	}
}

// TestLadderHaltLeavesBothTiersQueued stops a run with events pending in
// both tiers: they stay queued, and an event then scheduled below the
// pending minimum still fires first, so the cursor did not run ahead of
// the clock.
func TestLadderHaltLeavesBothTiersQueued(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.At(5, func() { record(); e.Halt() })
	e.At(ladderWindow+5, record)
	e.At(5*ladderWindow, record) // overflow tier
	e.Run()
	if len(fired) != 1 || e.Pending() != 2 || e.Now() != 5 {
		t.Fatalf("after halt fired=%v pending=%d now=%d", fired, e.Pending(), e.Now())
	}
	e.At(60, record)
	e.Run()
	want := []Time{5, 60, ladderWindow + 5, 5 * ladderWindow}
	if len(fired) != len(want) || e.Pending() != 0 {
		t.Fatalf("after drain fired=%v pending=%d, want %v", fired, e.Pending(), want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestLadderScheduleAcrossLap schedules from callbacks while the pending
// minimum sits in the overflow tier, with gaps larger than the near window,
// so the ring wraps between pushes; order and clock monotonicity must hold.
func TestLadderScheduleAcrossLap(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.At(3*ladderWindow, record)
	e.At(1, func() {
		e.At(ladderWindow+2, func() {
			record()
			e.At(2*ladderWindow+1, record)
		})
	})
	e.Run()
	want := []Time{ladderWindow + 2, 2*ladderWindow + 1, 3 * ladderWindow}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestLadderReferenceModel drives the queue with a seeded adversarial
// schedule — bursts of same-time events, near and far delays, nested
// scheduling from callbacks — and checks the firing order against a sorted
// (at, seq) reference.
func TestLadderReferenceModel(t *testing.T) {
	type rec struct {
		at  Time
		seq int
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var want, got []rec
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				var d uint64
				switch rng.Intn(4) {
				case 0:
					d = 0 // same-cycle burst
				case 1:
					d = uint64(rng.Intn(16))
				case 2:
					d = uint64(rng.Intn(ladderWindow))
				default:
					d = uint64(rng.Intn(4 * ladderWindow)) // overflow tier
				}
				at := e.Now() + d
				id := seq
				seq++
				want = append(want, rec{at, id})
				e.At(at, func() {
					got = append(got, rec{e.Now(), id})
					if depth < 2 && rng.Intn(3) == 0 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		e.Run()
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d fired as %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestLadderPoolReuse checks records recycle: a long run must keep the pool
// bounded rather than growing with event count.
func TestLadderPoolReuse(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			e.After(3, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	free := 0
	for r := e.q.free; r != nil; r = r.next {
		free++
	}
	if free == 0 || free > 128 {
		t.Fatalf("free list has %d records after run; want a small warm pool", free)
	}
}

// TestLadderPeek: peek must always return exactly the record next would pop,
// across both tiers and through overflow migration, without consuming it.
func TestLadderPeek(t *testing.T) {
	l := newLadder()
	if l.peek() != nil {
		t.Fatal("peek on empty ladder not nil")
	}
	mk := func(at Time, seq uint64) *event {
		r := l.get()
		r.at, r.seq = at, seq
		l.push(r)
		return r
	}
	near := mk(5, 2)
	mk(9, 3)
	mk(ladderWindow*2, 1) // far-future: overflow tier
	if got := l.peek(); got != near {
		t.Fatalf("peek = (at %d, seq %d), want the near minimum (5, 2)", got.at, got.seq)
	}
	if l.size != 3 {
		t.Fatalf("peek consumed: size %d", l.size)
	}
	// Drain and re-check peek == next at every step.
	for l.size > 0 {
		want := l.peek()
		got := l.next()
		if got != want {
			t.Fatalf("peek (at %d, seq %d) != next (at %d, seq %d)", want.at, want.seq, got.at, got.seq)
		}
		l.put(got)
	}
	if l.peek() != nil {
		t.Fatal("peek on drained ladder not nil")
	}
}

// TestLadderPeekOverflowOnly: with only far-future records pending, peek
// returns the overflow minimum without advancing the cursor.
func TestLadderPeekOverflowOnly(t *testing.T) {
	l := newLadder()
	r := l.get()
	r.at, r.seq = ladderWindow*5, 1
	l.push(r)
	if got := l.peek(); got != r {
		t.Fatal("peek missed the overflow minimum")
	}
	if l.base != 0 {
		t.Fatalf("peek advanced the cursor to %d", l.base)
	}
	if got := l.next(); got != r {
		t.Fatal("next after peek wrong")
	}
}
