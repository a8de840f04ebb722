package sim

import (
	"reflect"
	"testing"
)

func TestPoolClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 32}, {31, 32}, {32, 32}, {33, 64},
		{1024, 1024}, {1025, 2048},
		{1 << 21, 1 << 21},
	}
	var bp BufPool
	for _, c := range cases {
		//simlint:allow bufpoolown pool unit test: class-rounding probes are deliberately never returned
		b := bp.Get(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
	}
}

func TestPoolGetZeroesRecycledBuffer(t *testing.T) {
	var bp BufPool
	b := bp.Get(64)
	for i := range b {
		b[i] = 0xAA
	}
	bp.Put(b)
	//simlint:allow bufpoolown pool unit test: the recycled buffer is inspected for zeroing, deliberately never returned
	got := bp.Get(48)
	if len(got) != 48 {
		t.Fatalf("len = %d, want 48", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled Get not zeroed at %d: %#x (make-semantics contract)", i, v)
		}
	}
}

func TestPoolSnapshotCopies(t *testing.T) {
	var bp BufPool
	src := []byte{1, 2, 3, 4, 5}
	s := bp.Snapshot(src)
	if string(s) != string(src) {
		t.Fatalf("Snapshot = %v, want %v", s, src)
	}
	src[0] = 99
	if s[0] != 1 {
		t.Error("Snapshot aliases its source")
	}
	if bp.Snapshot(nil) != nil || bp.Snapshot([]byte{}) != nil {
		t.Error("Snapshot of empty bytes should be nil")
	}
}

func TestPoolGetZeroAndOversized(t *testing.T) {
	var bp BufPool
	if bp.Get(0) != nil {
		t.Error("Get(0) should be nil")
	}
	big := bp.Get(1<<21 + 1) // beyond the largest class: plain make
	if len(big) != 1<<21+1 {
		t.Fatalf("oversized Get len = %d", len(big))
	}
	bp.Put(big) // cap not a class size: dropped, counted foreign
	st := bp.Stats()
	if st.Gets != 0 || st.Puts != 0 {
		t.Errorf("oversized traffic counted as pool traffic: %+v", st)
	}
	if st.Foreign != 1 {
		t.Errorf("Foreign = %d, want 1", st.Foreign)
	}
}

func TestPoolForeignPutDropped(t *testing.T) {
	var bp BufPool
	bp.Put(make([]byte, 10, 48)) // capacity not a power of two
	bp.Put(nil)                  // cap 0: no-op, not foreign
	bp.Put(make([]byte, 0, 8))   // below the smallest class
	st := bp.Stats()
	if st.Puts != 0 {
		t.Errorf("foreign buffers accepted: Puts = %d", st.Puts)
	}
	if st.Foreign != 2 {
		t.Errorf("Foreign = %d, want 2 (nil Put is not foreign)", st.Foreign)
	}
	//simlint:allow bufpoolown pool unit test: probes whether a foreign Put leaked into the class list, deliberately never returned
	b := bp.Get(48)
	if cap(b) != 64 {
		t.Errorf("Get after foreign Put handed out a foreign cap %d", cap(b))
	}
}

func TestPoolLIFOAndStats(t *testing.T) {
	var bp BufPool
	a := bp.Get(100)
	b := bp.Get(100)
	bp.Put(a)
	bp.Put(b)
	//simlint:allow bufpoolown pool unit test: the LIFO probe is deliberately never returned
	c := bp.Get(100) // LIFO: most recently Put first
	//simlint:allow bufpoolown pool unit test: comparing the recycled pointer against the returned buffer is the point
	if &c[0] != &b[0] {
		t.Error("pool is not LIFO: Get did not return the last Put buffer")
	}
	st := bp.Stats()
	if st.Gets != 3 || st.Hits != 1 || st.Puts != 2 || st.InFlight != 1 {
		t.Errorf("stats = %+v, want Gets 3 Hits 1 Puts 2 InFlight 1", st)
	}
}

func TestEnginePoolIsPerEngine(t *testing.T) {
	e1, e2 := NewEngine(1), NewEngine(2)
	b := e1.Pool().Get(64)
	e1.Pool().Put(b)
	if e2.Pool().Stats() != (PoolStats{}) {
		t.Error("engines share pool state")
	}
	//simlint:allow bufpoolown pool unit test: recycling identity across engines is the property under test
	if got := e1.Pool().Get(64); &got[0] != &b[0] {
		t.Error("engine pool did not recycle its own buffer")
	}
}

// poolTimers schedules callbacks that each take a buffer, of sizes across
// several classes, and return it a little later, so that buffers overlap.
func poolTimers(e *Engine) {
	for i := 1; i <= 30; i++ {
		e.After(Time(5*i), func() {
			b := e.Pool().Get(100 * (i%10 + 1))
			e.After(12, func() { e.Pool().Put(b) })
		})
	}
}

// TestHorizonRunKeepsPoolLists: a Run stopped at a horizon with events
// pending has not quiesced, so its pool keeps its lists and the engine its
// arena and pending keys and runs no OnHandOff hook; the Run that then
// drains the queue hands both on and runs the hook once, and the split run reports the virtual time and pool traffic of one
// uninterrupted run.
func TestHorizonRunKeepsPoolLists(t *testing.T) {
	EmptyStash()
	e := NewEngine(1)
	hooked := 0
	e.OnHandOff(func() { hooked++ })
	poolTimers(e)
	e.Run(50)
	if lists, queues := Stashed(); e.Idle() || e.pool.free == nil || e.slots == nil || lists != 0 || queues != 0 || hooked != 0 {
		t.Fatalf("stopped at the horizon: idle %v, pool holds lists %v, engine holds an arena %v, stashed %d lists and %d queues, hook ran %d times; want pending keys, lists and arena kept, none stashed, no hook",
			e.Idle(), e.pool.free != nil, e.slots != nil, lists, queues, hooked)
	}
	e.Run(0)
	if lists, queues := Stashed(); e.pool.free != nil || e.slots != nil || lists != 1 || queues != 1 || hooked != 1 {
		t.Fatalf("after the last Run: pool holds lists %v, engine holds an arena %v, stashed %d lists and %d queues, hook ran %d times; want both handed on and the hook run once",
			e.pool.free != nil, e.slots != nil, lists, queues, hooked)
	}
	ref := NewEngine(1)
	poolTimers(ref)
	ref.Run(0)
	if e.Now() != ref.Now() || e.executed != ref.executed || e.pool.Stats() != ref.pool.Stats() || !reflect.DeepEqual(e.pool.ClassStats(), ref.pool.ClassStats()) {
		t.Errorf("split run: t=%v events %d %+v\none run:   t=%v events %d %+v",
			e.Now(), e.executed, e.pool.Stats(), ref.Now(), ref.executed, ref.pool.Stats())
	}
}

// TestPanickingRunHandsNothingOff: a Run that ends by re-raising a panic
// from simulated code, a process's or a callback's on Run's own goroutine,
// has not quiesced, even with nothing left to run: it keeps its lists and
// its arena, and runs no OnHandOff hook, so a layer above (switchnet's
// packet records) keeps its storage too.
func TestPanickingRunHandsNothingOff(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(e *Engine, use func())
	}{
		{"process", func(e *Engine, use func()) {
			e.Spawn("boom", func(p *Proc) { use(); panic("boom") })
		}},
		{"callback", func(e *Engine, use func()) {
			e.After(1, func() { use(); panic("boom") })
		}},
	} {
		EmptyStash()
		e := NewEngine(1)
		hooked := false
		e.OnHandOff(func() { hooked = true })
		tc.setup(e, func() { e.Pool().Put(e.Pool().Get(64)) })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Run did not re-raise the panic", tc.name)
				}
			}()
			e.Run(0)
		}()
		if !e.Idle() || e.LiveProcs() != 0 {
			t.Fatalf("%s: the panicking Run left work behind", tc.name)
		}
		if lists, queues := Stashed(); e.pool.free == nil || e.slots == nil || lists != 0 || queues != 0 {
			t.Errorf("%s: pool holds lists %v, engine holds an arena %v, stashed %d lists and %d queues; want both kept",
				tc.name, e.pool.free != nil, e.slots != nil, lists, queues)
		}
		if hooked {
			t.Errorf("%s: the panicking Run ran its OnHandOff hook", tc.name)
		}
	}
}
