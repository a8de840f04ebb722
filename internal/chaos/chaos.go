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
	"fmt"
	"hash/fnv"
	"math"

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
	// Digest folds every byte the workload received, in rank order; equal
	// digests on clean and faulted fabrics mean MPI semantics survived the
	// faults exactly.
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

func fill(buf []byte, sender, iter int) {
	for i := range buf {
		buf[i] = byte(iter*31 + sender*17 + i)
	}
}

func foldDigests(per []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range per {
		for i := 0; i < 8; i++ {
			b[i] = byte(d >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
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
		h := fnv.New64a()
		for it := 0; it < iters; it++ {
			size := chaosSizes[it%len(chaosSizes)]
			buf := make([]byte, size)
			if me == 0 {
				fill(buf, 0, it)
				w.Send(p, buf, other, it)
				w.Recv(p, buf, other, it)
				if !verify(buf, 1, it) {
					okAll = false
				}
			} else {
				w.Recv(p, buf, other, it)
				if !verify(buf, 0, it) {
					okAll = false
				}
				fill(buf, 1, it)
				w.Send(p, buf, other, it)
			}
			h.Write(buf)
		}
		digests[me] = h.Sum64()
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
		h := fnv.New64a()
		for it := 0; it < iters; it++ {
			size := chaosSizes[it%len(chaosSizes)]
			sbuf := make([]byte, size)
			rbuf := make([]byte, size)
			fill(sbuf, me, it)
			w.Sendrecv(p, sbuf, next, it, rbuf, prev, it)
			if !verify(rbuf, prev, it) {
				okAll = false
			}
			h.Write(rbuf)
		}
		digests[me] = h.Sum64()
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

func verify(buf []byte, sender, iter int) bool {
	for i := range buf {
		if buf[i] != byte(iter*31+sender*17+i) {
			return false
		}
	}
	return true
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
