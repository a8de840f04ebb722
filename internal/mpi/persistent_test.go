package mpi_test

import (
	"bytes"
	"testing"

	"splapi/internal/cluster"
	"splapi/internal/mpi"
	"splapi/internal/sim"
)

func TestPersistentRequestsHaloPattern(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		const iters = 6
		c := build(t, stack, 2, 21)
		var rounds [][]byte
		runWorld(t, c, func(p *sim.Proc, w *mpi.Comm) {
			if w.Rank() == 0 {
				buf := make([]byte, 32)
				send := w.SendInit(buf, 1, 9)
				for i := 0; i < iters; i++ {
					for j := range buf {
						buf[j] = byte(i*16 + j)
					}
					send.Start(p)
					send.Wait(p)
				}
			} else {
				buf := make([]byte, 32)
				recv := w.RecvInit(buf, 0, 9)
				for i := 0; i < iters; i++ {
					recv.Start(p)
					st := recv.Wait(p)
					if st.Count != 32 || st.Source != 0 {
						t.Errorf("iter %d: status %+v", i, st)
					}
					rounds = append(rounds, append([]byte(nil), buf...))
				}
			}
		})
		for i, got := range rounds {
			for j := range got {
				if got[j] != byte(i*16+j) {
					t.Fatalf("iter %d corrupted: %v", i, got)
				}
			}
		}
	})
}

func TestPersistentStartBeforeCompleteFatal(t *testing.T) {
	c := build(t, cluster.LAPIEnhanced, 2, 22)
	defer func() {
		if recover() == nil {
			t.Fatal("restarting an active persistent receive must panic")
		}
	}()
	runWorld(t, c, func(p *sim.Proc, w *mpi.Comm) {
		if w.Rank() != 0 {
			return
		}
		recv := w.RecvInit(make([]byte, 4), 1, 0)
		recv.Start(p)
		recv.Start(p) // still active: fatal
	})
}

func TestStartAllWaitAllPersistent(t *testing.T) {
	c := build(t, cluster.Native, 2, 23)
	got := make([]byte, 8)
	runWorld(t, c, func(p *sim.Proc, w *mpi.Comm) {
		if w.Rank() == 0 {
			a := w.SendInit([]byte("AAAA"), 1, 1)
			b := w.SsendInit([]byte("BBBB"), 1, 2)
			mpi.StartAll(p, a, b)
			mpi.WaitAllPersistent(p, a, b)
		} else {
			ra := w.RecvInit(got[:4], 0, 1)
			rb := w.RecvInit(got[4:], 0, 2)
			mpi.StartAll(p, ra, rb)
			mpi.WaitAllPersistent(p, ra, rb)
		}
	})
	if string(got) != "AAAABBBB" {
		t.Fatalf("got %q", got)
	}
}

func TestPackUnpackRoundtrip(t *testing.T) {
	vec := mpi.Vector(mpi.Int32, 3, 1, 2) // every other int32
	src := make([]byte, vec.Extent())
	for i := range src {
		src[i] = byte(i + 1)
	}
	packed := mpi.Pack(nil, src, vec, 1)
	if len(packed) != mpi.PackSize(vec, 1) {
		t.Fatalf("pack size %d, want %d", len(packed), mpi.PackSize(vec, 1))
	}
	out := make([]byte, vec.Extent())
	pos := 0
	mpi.Unpack(packed, &pos, out, vec, 1)
	if pos != len(packed) {
		t.Fatalf("pos = %d, want %d", pos, len(packed))
	}
	for blk := 0; blk < 3; blk++ {
		lo := blk * 2 * 4
		if !bytes.Equal(out[lo:lo+4], src[lo:lo+4]) {
			t.Fatalf("block %d mismatch", blk)
		}
	}
}

func TestPackedMessageExchange(t *testing.T) {
	// Pack two datatypes into one message, send, unpack (MPI_PACKED).
	c := build(t, cluster.LAPIEnhanced, 2, 24)
	var header []byte
	var body []byte
	runWorld(t, c, func(p *sim.Proc, w *mpi.Comm) {
		hdrT := mpi.Contiguous(mpi.Int32, 2)
		bodyT := mpi.Contiguous(mpi.Float64, 3)
		if w.Rank() == 0 {
			h := mpi.Int32Slice([]int32{7, 9})
			b := mpi.Float64Slice([]float64{1.5, -2.5, 3.25})
			msg := mpi.Pack(nil, h, hdrT, 1)
			msg = mpi.Pack(msg, b, bodyT, 1)
			w.Send(p, msg, 1, 0)
		} else {
			msg := make([]byte, mpi.PackSize(hdrT, 1)+mpi.PackSize(bodyT, 1))
			w.Recv(p, msg, 0, 0)
			pos := 0
			header = make([]byte, hdrT.Extent())
			mpi.Unpack(msg, &pos, header, hdrT, 1)
			body = make([]byte, bodyT.Extent())
			mpi.Unpack(msg, &pos, body, bodyT, 1)
		}
	})
	hs := make([]int32, 2)
	mpi.PutInt32Slice(hs, header)
	bs := make([]float64, 3)
	mpi.PutFloat64Slice(bs, body)
	if hs[0] != 7 || hs[1] != 9 || bs[0] != 1.5 || bs[1] != -2.5 || bs[2] != 3.25 {
		t.Fatalf("unpacked %v %v", hs, bs)
	}
}
