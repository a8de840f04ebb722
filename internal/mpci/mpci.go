// Package mpci implements the Message Passing Client Interface: the
// point-to-point layer under MPI that performs message matching, early
// arrival buffering, and the eager/rendezvous protocols (Section 4 of the
// paper).
//
// The paper's designs are one protocol that differs in how a message is
// framed and how a completion is delivered, and the package is built that
// way. One shared core (core.go) holds everything protocol-independent:
// mode-to-protocol translation, posted/early matching, early-arrival claim
// and drain, self-send, buffered-mode staging space, request tables, stats.
// Two wire formats embed it:
//
//   - NativeProvider frames messages over the Pipes reliable byte stream
//     (the protocol stack of Figure 1a), including the user-buffer/pipe
//     buffer copy rule of Section 2 and the hysteresis interrupt scheme;
//   - LAPIProvider (the "new, thinner MPCI" of Figure 1c) implements eager
//     and rendezvous with LAPI_Amsend header and completion handlers
//     exactly as Figures 3-9 outline, and resequences envelopes.
//
// The five registered providers (registry.go) are Capabilities literals
// over those two: the Section 5 Base, Counters and Enhanced designs and the
// zero-copy RDMA rendezvous are switches on the LAPI wire format, read from
// the Capabilities value the provider was registered under and reports.
package mpci

import (
	"fmt"

	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Wildcards for matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Mode is an MPI communication mode (Table 2 maps modes to protocols).
type Mode byte

// Communication modes.
const (
	ModeStandard Mode = iota
	ModeReady
	ModeSync
	ModeBuffered
)

func (m Mode) String() string {
	switch m {
	case ModeReady:
		return "ready"
	case ModeSync:
		return "sync"
	case ModeBuffered:
		return "buffered"
	default:
		return "standard"
	}
}

// Envelope describes a message for matching purposes.
type Envelope struct {
	Src  int
	Tag  int
	Ctx  int // communicator context id
	Size int
	Mode Mode
}

// Status reports the outcome of a completed receive.
type Status struct {
	Src   int
	Tag   int
	Count int
}

// SendReq is an in-flight send.
type SendReq struct {
	Env      Envelope
	Dst      int
	done     bool
	acked    bool // rendezvous: request-to-send acknowledged
	blocking bool
	// rdvBuf holds the message body between the request-to-send and its
	// acknowledgement.
	rdvBuf []byte
	// bsendLen is the attached-buffer space to free when this buffered
	// send's staging copy is no longer needed.
	bsendLen int
	// staged is the pooled staging copy of a buffered send (native
	// provider); it returns to the engine pool with the bsendLen space.
	staged []byte
	// bsendSlot identifies the staging space to the receiver-notification
	// protocol (LAPI provider, Figure 8).
	bsendSlot uint32
	// recvID is the receiver's rendezvous routing id, learned from the
	// request-to-send acknowledgement.
	recvID uint32
	// rdmaKey is the registered-region handle pinning the message bytes
	// under a zero-copy rendezvous (rdma provider); released when the
	// receiver's pull completes.
	rdmaKey uint32
}

// Done reports whether the send has completed (the user buffer is safe to
// reuse and, for synchronous mode, the receiver has matched).
func (r *SendReq) Done() bool { return r.done }

// RecvReq is a posted receive.
type RecvReq struct {
	Match  Envelope // Src/Tag may be wildcards; Size is the buffer capacity
	Buf    []byte
	done   bool
	status Status
	// pendingEnv is the matched envelope while a rendezvous body is in
	// flight toward this receive.
	pendingEnv Envelope
}

// Done reports whether the receive has completed.
func (r *RecvReq) Done() bool { return r.done }

// Status returns the completion status; valid only once Done.
func (r *RecvReq) Status() Status { return r.status }

func (r *RecvReq) complete(src, tag, count int) {
	if r.done {
		panic("mpci: receive completed twice")
	}
	if count > len(r.Buf) {
		panic(fmt.Sprintf("mpci: message truncation: %d bytes into a %d-byte receive", count, len(r.Buf)))
	}
	r.status = Status{Src: src, Tag: tag, Count: count}
	r.done = true
}

// Provider is the point-to-point transport the MPI layer runs on.
type Provider interface {
	// Rank and Size identify this task within the job.
	Rank() int
	Size() int
	// Isend starts a send; the returned request completes per mode
	// semantics. buf must stay untouched until the request is done
	// (except for buffered mode, which copies).
	Isend(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq
	// IsendBlocking is the blocking-send variant: providers may drive the
	// protocol from the calling process (Figure 6's rendezvous shape).
	// The returned request is not necessarily done: callers still wait.
	IsendBlocking(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq
	// Irecv posts a receive.
	Irecv(p *sim.Proc, src, tag, ctx int, buf []byte) *RecvReq
	// Iprobe reports whether a matching message has arrived (without
	// receiving it).
	Iprobe(p *sim.Proc, src, tag, ctx int) (Envelope, bool)
	// WaitUntil drives communication progress until cond holds.
	WaitUntil(p *sim.Proc, cond func() bool)
	// AttachBuffer provides the buffered-mode staging space.
	AttachBuffer(buf []byte)
	// DetachBuffer waits for all buffered sends to drain and returns the
	// buffer.
	DetachBuffer(p *sim.Proc) []byte
	// Capabilities reports what this implementation supports. Callers
	// branch on capabilities, never on provider names.
	Capabilities() Capabilities
	// Stats returns the cumulative protocol counters. Every provider
	// reports the same struct, so tools and tests read counters without
	// switching on concrete provider types.
	Stats() ProviderStats
	// Trace returns the attached event log (nil when tracing is off). The
	// MPI layer emits its call enter/exit events through it.
	Trace() *tracelog.Log
}

// matches reports whether an arrived envelope satisfies a posted match.
func matches(want Envelope, got Envelope) bool {
	if want.Ctx != got.Ctx {
		return false
	}
	if want.Src != AnySource && want.Src != got.Src {
		return false
	}
	if want.Tag != AnyTag && want.Tag != got.Tag {
		return false
	}
	return true
}

// earlyMsg is an arrived-but-unmatched message (or rendezvous request).
type earlyMsg struct {
	env Envelope
	// Eager payload assembled in the early-arrival buffer; nil for a
	// rendezvous request-to-send.
	data     []byte
	complete bool // all payload bytes have arrived
	// Rendezvous bookkeeping: the sender's request id to acknowledge
	// when a matching receive is posted.
	isRTS       bool
	rtsSendReq  uint32
	rtsBlocking bool
	// Zero-copy rendezvous (rdma provider): the sender's registered-region
	// handle the receiver pulls the body from.
	rtsZC   bool
	rtsRkey uint32
	// Matched receive waiting for this early message to finish arriving.
	claimedBy *RecvReq
	// onComplete fires when the last payload byte lands after a claim.
	onComplete func(p *sim.Proc)
	// onClaim fires when a posted receive consumes this message (used for
	// self-send synchronous-mode completion).
	onClaim func(p *sim.Proc)
	// bsendSlot, when nonzero, asks the receiver to notify the sender so
	// it can free its staging space (buffered mode, Figure 8).
	bsendSlot uint32
	// traceID is the causal message id this early arrival was traced
	// under, so the eventual claim and completion stitch into its span.
	traceID uint64
}

// matchCore is the matching engine inside core: the posted Receive queue
// and the Early Arrival queue of Section 4.1.
type matchCore struct {
	posted  []*RecvReq
	early   []*earlyMsg
	eaBytes int
	eaCap   int
}

// postRecv adds req to the posted queue unless an early arrival matches; in
// that case the early message is removed and returned.
func (mc *matchCore) postRecv(req *RecvReq) *earlyMsg {
	for i, em := range mc.early {
		if em.claimedBy == nil && matches(req.Match, em.env) {
			mc.early = append(mc.early[:i], mc.early[i+1:]...)
			return em
		}
	}
	mc.posted = append(mc.posted, req)
	return nil
}

// matchArrival finds (and removes) a posted receive matching env, or nil.
func (mc *matchCore) matchArrival(env Envelope) *RecvReq {
	for i, req := range mc.posted {
		if matches(req.Match, env) {
			mc.posted = append(mc.posted[:i], mc.posted[i+1:]...)
			return req
		}
	}
	return nil
}

// addEarly appends an early arrival, accounting for buffer space.
func (mc *matchCore) addEarly(em *earlyMsg) {
	if !em.isRTS {
		mc.eaBytes += em.env.Size
		if mc.eaCap > 0 && mc.eaBytes > mc.eaCap {
			panic(fmt.Sprintf("mpci: early-arrival buffer exhausted (%d > %d bytes); lower the eager limit", mc.eaBytes, mc.eaCap))
		}
	}
	mc.early = append(mc.early, em)
}

// releaseEarly returns an early message's buffer space.
func (mc *matchCore) releaseEarly(em *earlyMsg) {
	if !em.isRTS {
		mc.eaBytes -= em.env.Size
	}
}

// probe returns the first early arrival matching the probe criteria.
func (mc *matchCore) probe(src, tag, ctx int) (Envelope, bool) {
	want := Envelope{Src: src, Tag: tag, Ctx: ctx}
	for _, em := range mc.early {
		if em.claimedBy == nil && matches(want, em.env) {
			return em.env, true
		}
	}
	return Envelope{}, false
}
