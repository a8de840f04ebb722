// Package chaos is the fault-injection acceptance harness: it runs
// payload-verifying MPI workloads under the named fault plans and gates on
// the three properties the reliability stack promises — the application
// observes byte-exact data on a faulted fabric, every run completes (no
// protocol deadlock), and completion-time inflation stays bounded. A
// fourth gate reruns every faulted configuration and requires bit-identical
// virtual time, digest, and counters, so a chaos failure is always
// reproducible from its (plan, workload, seed) triple.
package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"splapi/internal/bench"
	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/nas"
	"splapi/internal/sim"
	"splapi/internal/trace"
)

// Outcome is everything one workload run produces.
type Outcome struct {
	VTime sim.Time // final virtual time (run goes to quiescence)
	// Digest is an FNV-1a fold, in rank order, of every payload the ranks
	// check: each message a rank received, except that ping-pong rank 1
	// folds the reply it sends. Equal digests on clean and faulted fabrics
	// mean MPI semantics survived the faults exactly.
	Digest uint64
	// Ok is the workload's own verification: every rank finished and every
	// received payload matched its expected pattern. A protocol deadlock
	// shows up here — the engine quiesces with ranks still incomplete.
	Ok bool
	// Counters is the run's counter fingerprint, compared bit for bit by
	// the determinism gate.
	Counters trace.Counters
}

// Workload is one verifying MPI program the harness can run under a plan.
type Workload struct {
	Name string
	Run  func(par machine.Params, seed int64) Outcome
}

// Workloads returns the harness suite: a mixed-size ping-pong on the
// MPI-LAPI Enhanced stack, a 4-node Sendrecv ring on the native stack
// (exercising both protocol families), and the NAS CG kernel whose
// distributed checksum doubles as the digest.
func Workloads() []Workload {
	return []Workload{
		{Name: "pingpong-enhanced", Run: runPingPong},
		{Name: "ring-native", Run: runRing},
		{Name: "nas-cg", Run: runNASCG},
	}
}

// WorkloadByName resolves one workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("chaos: unknown workload %q", name)
}

// chaosSizes cycles messages across the eager/rendezvous boundary on both
// stacks (SP332 eager limit 4096; the MPI-LAPI designs switch at the same
// configured point).
var chaosSizes = []int{1, 64, 500, 4096, 16384}

var maxChaosSize = slices.Max(chaosSizes)

// ramp[j] = byte(j). The payload byte(iter*31 + sender*17 + i) repeats every
// 256 bytes, so each payload is a window of ramp starting at patternOff.
var ramp = func() []byte {
	b := make([]byte, 256+maxChaosSize)
	for j := range b {
		b[j] = byte(j)
	}
	return b
}()

func patternOff(sender, iter int) int { return int(byte(iter*31 + sender*17)) }

func fill(buf []byte, sender, iter int) { copy(buf, ramp[patternOff(sender, iter):]) }

// FNV-1a, 64-bit: hash/fnv's New64a with its state in the open.
const fnvOffset, fnvPrime uint64 = 14695981039346656037, 1099511628211

func fnvFold(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// foldMemo maps (state in, ramp window) to the state after folding that
// window. While every payload of a run matches, its states follow one fixed
// sequence, and only then does the memo store: it holds under 200 entries.
var (
	foldMu   sync.RWMutex
	foldMemo = make(map[foldKey]uint64)
)

type foldKey struct{ h, off, n uint64 }

// checkFold returns the FNV-1a state h after folding buf, and clears *ok
// unless buf is the payload sender writes in iteration iter (a buffer that
// is not is folded byte by byte). The memo stores only while *ok holds:
// while every earlier buffer of the run matched.
func checkFold(h uint64, buf []byte, sender, iter int, ok *bool) uint64 {
	k := foldKey{h, uint64(patternOff(sender, iter)), uint64(len(buf))}
	want := ramp[k.off : k.off+k.n]
	if !bytes.Equal(buf, want) {
		*ok = false
		return fnvFold(h, buf)
	}
	foldMu.RLock()
	out, hit := foldMemo[k]
	foldMu.RUnlock()
	if !hit {
		out = fnvFold(h, want)
		if *ok {
			foldMu.Lock()
			foldMemo[k] = out
			foldMu.Unlock()
		}
	}
	return out
}

func foldDigests(per []uint64) uint64 {
	h := fnvOffset
	var b [8]byte
	for _, d := range per {
		binary.LittleEndian.PutUint64(b[:], d)
		h = fnvFold(h, b[:])
	}
	return h
}

// runPingPong bounces patterned messages of cycling sizes between two
// nodes on the MPI-LAPI Enhanced stack; both sides verify every byte.
func runPingPong(par machine.Params, seed int64) Outcome {
	c := cluster.New(cluster.Config{Nodes: 2, Stack: cluster.LAPIEnhanced, Seed: seed, Params: &par})
	const iters = 40
	digests := make([]uint64, 2)
	done := make([]bool, 2)
	okAll := true
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		me := w.Rank()
		other := 1 - me
		h := fnvOffset
		whole := make([]byte, maxChaosSize)
		for it := 0; it < iters; it++ {
			buf := whole[:chaosSizes[it%len(chaosSizes)]]
			if me == 0 {
				fill(buf, 0, it)
				w.Send(p, buf, other, it)
				w.Recv(p, buf, other, it)
				h = checkFold(h, buf, 1, it, &okAll)
			} else {
				clear(buf)
				w.Recv(p, buf, other, it)
				off := patternOff(0, it)
				okAll = okAll && bytes.Equal(buf, ramp[off:off+len(buf)])
				fill(buf, 1, it)
				w.Send(p, buf, other, it)
				h = checkFold(h, buf, 1, it, &okAll) // rank 1 folds the reply it sends
			}
		}
		digests[me] = h
		done[me] = true
	})
	for _, d := range done {
		okAll = okAll && d
	}
	return Outcome{VTime: c.Now(), Digest: foldDigests(digests), Ok: okAll, Counters: trace.Collect(c).Counters()}
}

// runRing is a 4-node Sendrecv ring on the native stack: every iteration
// each rank sends a patterned buffer to its successor while receiving and
// verifying its predecessor's.
func runRing(par machine.Params, seed int64) Outcome {
	const n = 4
	c := cluster.New(cluster.Config{Nodes: n, Stack: cluster.Native, Seed: seed, Params: &par})
	const iters = 24
	digests := make([]uint64, n)
	done := make([]bool, n)
	okAll := true
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		me := w.Rank()
		next, prev := (me+1)%n, (me+n-1)%n
		h := fnvOffset
		swhole, rwhole := make([]byte, maxChaosSize), make([]byte, maxChaosSize)
		for it := 0; it < iters; it++ {
			size := chaosSizes[it%len(chaosSizes)]
			sbuf, rbuf := swhole[:size], rwhole[:size]
			fill(sbuf, me, it)
			clear(rbuf)
			w.Sendrecv(p, sbuf, next, it, rbuf, prev, it)
			h = checkFold(h, rbuf, prev, it, &okAll)
		}
		digests[me] = h
		done[me] = true
	})
	for _, d := range done {
		okAll = okAll && d
	}
	return Outcome{VTime: c.Now(), Digest: foldDigests(digests), Ok: okAll, Counters: trace.Collect(c).Counters()}
}

// runNASCG runs the CG kernel on MPI-LAPI Enhanced; the distributed
// checksum (verified against the serial reference inside the driver) is
// the digest, so a fault-induced numerical divergence fails the payload
// gate. Counters stay zero — the kernel driver owns its cluster.
func runNASCG(par machine.Params, seed int64) Outcome {
	k, err := nas.ByName("CG")
	if err != nil {
		panic(err)
	}
	res := bench.RunNASKernelOpts(k, cluster.LAPIEnhanced, par, seed, nil)
	return Outcome{VTime: res.Time, Digest: math.Float64bits(res.Checksum), Ok: res.Verified}
}

// MaxInflation returns the completion-time inflation bound for a plan:
// faulted virtual time may be at most this multiple of the clean run's.
// Bounds are generous (the gate exists to catch pathological protocol
// behaviour — retransmission storms, backoff collapse — not to benchmark)
// but finite.
func MaxInflation(plan string) float64 {
	switch plan {
	case "corruptor":
		return 30
	case "flappy-route":
		return 30
	case "stalled-adapter":
		return 30
	default: // burst-loss and custom plans: timeout-dominated recovery
		return 60
	}
}
