package sim

import (
	"reflect"
	"testing"
)

// The Timer handle pins nothing: once its event fires or is cancelled the
// slot returns to the free stack and may be reused by an unrelated event,
// in this engine or, once the arena is handed on, in another. The slot's
// sequence number is what keeps a stale handle from cancelling the slot's
// new occupant; these tests pin down that contract.

func TestTimerStopAfterFireReportsFalse(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(10, func() { fired = true })
	e.Run(0)
	if !fired {
		t.Fatal("timer never fired")
	}
	if tm.Stop() {
		t.Error("Stop after fire reported true; the callback already ran")
	}
}

func TestTimerDoubleStop(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(10, func() { t.Error("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("first Stop reported false on a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop reported true; the timer was already cancelled")
	}
	e.Run(0)
}

func TestTimerStaleHandleIgnoresRecycledSlot(t *testing.T) {
	e := NewEngine(1)
	var tmA, tmB Timer
	firedB := false
	tmA = e.At(5, func() {
		// The slot tmA occupied was released just before this callback ran
		// (see Run), so the next schedule reuses it under a new seq.
		tmB = e.At(10, func() { firedB = true })
	})
	e.Run(7) // fire A; B stays pending beyond the horizon
	if tmA.slot != tmB.slot {
		t.Fatalf("test premise broken: B did not reuse A's slot (free-stack order changed?)")
	}
	if tmA.seq == tmB.seq {
		t.Fatal("slot reuse kept the old occupant's seq")
	}
	if tmA.Stop() {
		t.Error("stale handle Stop reported true against a recycled slot")
	}
	if firedB {
		t.Fatal("B fired before the horizon")
	}
	e.Run(0)
	if !firedB {
		t.Error("stale handle Stop cancelled the slot's new occupant")
	}
	if tmB.Stop() {
		t.Error("Stop after fire reported true on the reused slot")
	}
}

// TestStaleTimerIgnoresAdoptedArena: arenas move between engines, so a
// slot's history is not its engine's. A's Timer tm occupies a slot of A's
// own arena, which then goes to the stash; A later adopts C's arena, whose
// same slot has had a different number of occupants, and schedules into
// it. Per-slot reuse counts can then coincide; seq cannot.
func TestStaleTimerIgnoresAdoptedArena(t *testing.T) {
	EmptyStash()
	nop := func() {}
	c := NewEngine(1)
	c.After(1, nop) // C has an arena of its own
	a := NewEngine(1)
	a.After(1, nop)
	a.Run(0) // A's arena goes to the stash...
	tm := a.After(1, nop)
	a.Run(0) // ...comes back for tm, and goes again
	c.Run(0) // C's arena lands on top of it
	cArena := &queueStash.items[len(queueStash.items)-1].slots[0]
	fired := false
	fresh := a.After(1, func() { fired = true })
	if &a.slots[0] != cArena || fresh.slot != tm.slot {
		t.Fatal("test premise broken: A did not schedule into the slot of C's arena that tm names")
	}
	if tm.Stop() {
		t.Error("stale Timer cancelled an event in an adopted arena")
	}
	a.Run(0)
	if !fired {
		t.Error("the adopted arena's new event never fired")
	}
}

func TestZeroTimerStopIsFalse(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop reported true")
	}
}

// TestKillAllManyProcs: shutdown with thousands of parked processes must
// kill every one (in ascending spawn order, so exit effects are
// deterministic) and leave no live processes behind. This is the
// regression test for the quadratic rescan killAll used to do per kill.
func TestKillAllManyProcs(t *testing.T) {
	const n = 3000
	e := NewEngine(1)
	var c Cond
	var killed []int
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("waiter", func(p *Proc) {
			p.OnExit(func() { killed = append(killed, i) })
			c.Wait(p)
			t.Error("parked process resumed instead of being killed")
		})
	}
	e.Run(0)
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Run, want 0", e.LiveProcs())
	}
	if e.BlockedProcs() != 0 {
		t.Fatalf("BlockedProcs = %d after Run, want 0", e.BlockedProcs())
	}
	if len(killed) != n {
		t.Fatalf("%d exit hooks ran, want %d", len(killed), n)
	}
	for i, got := range killed {
		if got != i {
			t.Fatalf("kill order broke at %d: got proc %d (want ascending spawn order)", i, got)
		}
	}
}

// TestKillOrderAfterOutOfOrderExits: processes that end in an order other
// than spawn order leave the live list in ascending id, so shutdown still
// kills the parked rest in ascending id. A process spawned after the exits
// is killed last, and one whose unwinding parks again is killed once more
// after the first pass.
func TestKillOrderAfterOutOfOrderExits(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var killed []int
	exitAt := [8]Time{5: 1, 1: 2, 6: 3} // 0: parks until killed
	for i := 0; i < 8; i++ {
		e.Spawn("p", func(p *Proc) {
			if exitAt[i] > 0 {
				p.Sleep(exitAt[i])
				return
			}
			p.OnExit(func() { killed = append(killed, i) })
			if i == 3 {
				defer c.Wait(p) // the unwinding parks again
			}
			c.Wait(p)
		})
	}
	e.At(4, func() {
		e.Spawn("late", func(p *Proc) {
			p.OnExit(func() { killed = append(killed, 8) })
			c.Wait(p)
		})
	})
	e.Run(0)
	if want := []int{0, 2, 4, 7, 8, 3}; !reflect.DeepEqual(killed, want) {
		t.Fatalf("kill order %v, want %v", killed, want)
	}
	if e.LiveProcs() != 0 || e.BlockedProcs() != 0 {
		t.Fatalf("LiveProcs = %d, BlockedProcs = %d after Run, want 0, 0", e.LiveProcs(), e.BlockedProcs())
	}
}
