package sim

import (
	"math/rand"
	"testing"
)

// Golden schedule digests pin the engine's total order without going
// through the protocol stack. A seeded generator builds a small program
// of processes and callbacks over every primitive in the package; each
// step logs (now, proc id, step) into a running hash. The constants in
// goldenDigests were captured at commit e63ae49 — the last one whose
// serial loop ran on a dedicated engine goroutine — so any scheduler
// rewrite that moves a single wake-up, kill, event count or sequence
// number changes a digest.

// Generated operation kinds.
const (
	gSleep = iota
	gYield
	gSignal
	gBroadcast
	gWaitTimeout
	gWait
	gUse
	gHold
	gPut
	gGet
	gTryPut
	gTimer
	gStopTimer
	gSpawn
	nGops
	gBarrier // placed explicitly, never drawn
)

type gop struct {
	kind int
	a, b int
}

type gworld struct {
	e      *Engine
	scale  Time // every drawn delay, horizon and callback time is multiplied by it
	h      uint64
	n      int
	conds  [2]Cond
	res    *Resource
	q      *Queue
	bar    *Barrier
	timers []Timer
	kids   [][]gop
}

func (w *gworld) mix(x uint64) {
	for i := 0; i < 8; i++ {
		w.h = (w.h ^ (x & 0xff)) * 1099511628211
		x >>= 8
	}
}

func (w *gworld) log(id, step int) {
	w.mix(uint64(w.e.now))
	w.mix(uint64(int64(id)))
	w.mix(uint64(step))
	w.n++
}

// program draws n operations. Nested spawns get shorter programs and stop
// at depth 2.
func (w *gworld) program(rng *rand.Rand, n, depth int) []gop {
	prog := make([]gop, 0, n)
	for len(prog) < n {
		op := gop{kind: rng.Intn(nGops), a: rng.Intn(9), b: rng.Intn(4)}
		switch op.kind {
		case gSleep, gTimer:
			// Sleeps and timers dominate, with small durations so that
			// same-time ties are the common case.
		case gSpawn:
			if depth >= 2 {
				continue
			}
			w.kids = append(w.kids, w.program(rng, 3+rng.Intn(4), depth+1))
			op.a = len(w.kids) - 1
		case gWait, gGet, gPut:
			// May park forever (killed at the end of Run); keep them rarer.
			if rng.Intn(3) != 0 {
				op.kind = gSleep
			}
		}
		prog = append(prog, op)
	}
	return prog
}

// callback is the body of a gTimer event: log, then poke a primitive.
func (w *gworld) callback(tag, what int) func() {
	return func() {
		w.log(-1-tag, what)
		switch what {
		case 0:
			w.conds[0].Signal()
		case 1:
			w.conds[1].Broadcast()
		case 2:
			w.q.TryPut(tag)
		}
	}
}

// d scales a drawn delay.
func (w *gworld) d(a int) Time { return Time(a) * w.scale }

func (w *gworld) body(prog []gop) func(*Proc) {
	return func(p *Proc) {
		id := p.id
		p.OnExit(func() { w.log(id, 0xE0) })
		for pc, op := range prog {
			step := pc<<8 | op.kind<<1
			w.log(id, step)
			c := &w.conds[op.b&1]
			switch op.kind {
			case gSleep:
				p.Sleep(w.d(op.a))
			case gYield:
				p.Yield()
			case gSignal:
				if c.Signal() {
					step |= 1
				}
			case gBroadcast:
				c.Broadcast()
			case gWaitTimeout:
				if c.WaitTimeout(p, w.d(op.a)) {
					step |= 1
				}
			case gWait:
				c.Wait(p)
			case gUse:
				w.res.Use(p, w.d(op.a))
			case gHold:
				w.res.Acquire(p)
				p.Sleep(w.d(op.a))
				p.Yield()
				w.res.Release()
			case gPut:
				w.q.Put(p, id)
			case gGet:
				step |= w.q.Get(p).(int) << 16
			case gTryPut:
				if w.q.TryPut(id) {
					step |= 1
				}
			case gTimer:
				w.timers = append(w.timers, w.e.After(w.d(op.a), w.callback(len(w.timers), op.b)))
			case gStopTimer:
				if n := len(w.timers); n > 0 && w.timers[(op.a*7+op.b)%n].Stop() {
					step |= 1
				}
			case gSpawn:
				w.e.Spawn("kid", w.body(w.kids[op.a]))
			case gBarrier:
				w.bar.Await(p)
			}
			w.log(id, step|1<<30)
		}
	}
}

// scheduleDigest runs the program generated from seed with delays of a few
// nanoseconds.
func scheduleDigest(seed int64) uint64 { return scaledDigest(seed, 1) }

// scaledDigest runs the program generated from seed, every time in it
// multiplied by scale, and returns the hash of its step log, event counts,
// final clock and sequence counter. The random draws do not depend on
// scale.
func scaledDigest(seed int64, scale Time) uint64 {
	w := &gworld{e: NewEngine(seed), h: 14695981039346656037, scale: scale}
	rng := w.e.Rand() // the program is drawn up front; nothing below draws again
	w.res = NewResource(1 + rng.Intn(2))
	w.q = NewQueue(2)
	parties := 2 + rng.Intn(2)
	w.bar = NewBarrier(parties)
	for i, n := 0, 3+rng.Intn(4); i < n; i++ {
		prog := w.program(rng, 8+rng.Intn(12), 0)
		if i < parties {
			// Every barrier party awaits exactly twice, at drawn positions.
			for r := 0; r < 2; r++ {
				at := rng.Intn(len(prog) + 1)
				prog = append(prog[:at], append([]gop{{kind: gBarrier}}, prog[at:]...)...)
			}
		}
		w.e.Spawn("top", w.body(prog))
	}
	horizon := Time(0)
	if seed%4 != 0 {
		// Split the run at a horizon inside the program, and give the
		// second Run processes of its own: callbacks beyond the horizon
		// spawn them.
		horizon = w.d(10 + rng.Intn(40))
		for i := 0; i < 2; i++ {
			prog := w.program(rng, 6+rng.Intn(6), 1)
			tag := 1000 + i
			w.e.At(horizon+w.d(1+rng.Intn(9)), func() {
				w.log(-tag, 0)
				w.e.Spawn("late", w.body(prog))
			})
		}
	}
	if seed%8 == 5 {
		w.e.At(w.d(5+rng.Intn(60)), func() {
			w.log(-2000, 0)
			w.e.Stop()
		})
	}
	if horizon > 0 {
		w.mix(uint64(w.e.Run(horizon)))
		w.log(-3000, w.e.BlockedProcs()<<8|w.e.LiveProcs())
	}
	w.mix(uint64(w.e.Run(0)))
	w.log(-3001, w.e.BlockedProcs()<<8|w.e.LiveProcs())
	w.mix(w.e.seq)
	w.mix(uint64(w.n))
	return w.h
}

func TestGoldenScheduleDigests(t *testing.T) {
	for i, want := range goldenDigests {
		seed := int64(i + 1)
		if got := scheduleDigest(seed); got != want {
			t.Errorf("seed %d: schedule digest %#016x, want %#016x (captured at e63ae49)", seed, got, want)
		}
	}
}

// TestGoldenScheduleDigestsAreRepeatable guards the generator itself: a
// digest that differed between two runs of one binary would pin nothing.
func TestGoldenScheduleDigestsAreRepeatable(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		if a, b := scheduleDigest(seed), scheduleDigest(seed); a != b {
			t.Fatalf("seed %d: digests %#x and %#x from the same program", seed, a, b)
		}
	}
}

// wideScale is the delay scale of seed's wide program: a power of two up to
// 2^40, plus 1 or 2 on most seeds, so that event times differ in their high
// bits and their low ones alike.
func wideScale(seed int64) Time { return Time(1)<<(seed*7%41) + Time(seed%3) }

// TestGoldenWideScheduleDigests runs the generator with its times scaled by
// wideScale, so that the queue holds events from nanoseconds to hours
// apart. The constants were captured at d697e4e, whose event queue was a
// 4-ary heap.
func TestGoldenWideScheduleDigests(t *testing.T) {
	for i, want := range wideDigests {
		seed := int64(i + 1)
		if got := scaledDigest(seed, wideScale(seed)); got != want {
			t.Errorf("seed %d (scale %d): schedule digest %#016x, want %#016x (captured at d697e4e)", seed, wideScale(seed), got, want)
		}
	}
}

var goldenDigests = [...]uint64{
	0x48dd86ce9ff37c62, // seed 1
	0x89f2424cb6f60373, // seed 2
	0x1b4398546023eb6b, // seed 3
	0x6e9c252ed7515a42, // seed 4
	0x686b3c4dec0c8485, // seed 5
	0x39d7158f7a1bd844, // seed 6
	0xb5df79bcc2507059, // seed 7
	0xe1308127a9d838d6, // seed 8
	0x45e50e3d21df13b4, // seed 9
	0x4dad9ca97ea48832, // seed 10
	0x194f957bd835cea8, // seed 11
	0x3ac64ea02a07040f, // seed 12
	0x1bca006b825180c0, // seed 13
	0x120612998d3644d7, // seed 14
	0x993310ca620208f6, // seed 15
	0x79f4dde2c05b1989, // seed 16
	0x82e19be04220989b, // seed 17
	0x4b756be9349f4435, // seed 18
	0x9ca31694616d19ba, // seed 19
	0x0fc41d635bf2cdd6, // seed 20
	0x103acf52326c1e71, // seed 21
	0xa4d2ecf5ffe5b297, // seed 22
	0x32cf5ed3ecc62a24, // seed 23
	0x8a3aced1f6317509, // seed 24
	0x27107ace9a0fa0e9, // seed 25
	0xb7aed67f4be25a78, // seed 26
	0x99fc9ca5c1b90734, // seed 27
	0x46eee247ae930e21, // seed 28
	0x33c6c2bdcfdd723c, // seed 29
	0xc59212c90babba25, // seed 30
	0x4a7b4b0f38c58aa7, // seed 31
	0x01ce7b7d62d1d1be, // seed 32
	0x4a62bd46c98fe299, // seed 33
	0x2dfeeffeb5076475, // seed 34
	0x296999e2ce6baa26, // seed 35
	0x4ab2fb79a91432cc, // seed 36
	0x6e891deb293c1cf7, // seed 37
	0x27a8f58549c38bad, // seed 38
	0x97a19cac12a65bd0, // seed 39
	0x29a9eaeb651dbd4f, // seed 40
	0x1405652a25c15d28, // seed 41
	0x5baf6a7637235be9, // seed 42
	0xba079757f988ce54, // seed 43
	0xa9e488ec122d3073, // seed 44
	0x2debcaa68f64f17a, // seed 45
	0xc5de66c4ab8ce224, // seed 46
	0x5bf550b69ef46938, // seed 47
	0xdac82da3d63b86eb, // seed 48
}

var wideDigests = [...]uint64{
	0xafb20742ba020097, // seed 1
	0x0e9d88621e2c6737, // seed 2
	0xde93ac6643967882, // seed 3
	0x07ad1c893e63744f, // seed 4
	0xb206af65073f2bb2, // seed 5
	0xfd86188b29205aa7, // seed 6
	0xe6f0791df968a3d6, // seed 7
	0x62b7a918d4ef5ed8, // seed 8
	0x349e1bbdb52efa72, // seed 9
	0x6162c6be7d265838, // seed 10
	0x3ea5c41a3aff5688, // seed 11
	0xf8a4ada281a45506, // seed 12
	0xb5dfb618c4bc635c, // seed 13
	0xf2b3bdc1f98c5149, // seed 14
	0x0cd4731babfd1a2c, // seed 15
	0xf88e2e96397e52e6, // seed 16
	0x6c45e37d4d4b2457, // seed 17
	0xd736149959ae6d39, // seed 18
	0x3b6bdf9f1d92a272, // seed 19
	0xf202aca2a5c240be, // seed 20
	0x6e85788dd3b02781, // seed 21
	0xf416305511af7424, // seed 22
	0xfaa9d3c9340a32c1, // seed 23
	0xcf9907b01d272aae, // seed 24
}
