package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"splapi/internal/faults"
	"splapi/internal/machine"
)

// formula is the payload sender writes in iteration iter, computed one byte
// at a time: the reference every ramp window must equal.
func formula(sender, iter, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(iter*31 + sender*17 + i)
	}
	return b
}

func memoLen() int {
	foldMu.RLock()
	defer foldMu.RUnlock()
	return len(foldMemo)
}

// TestFoldMatchesFNV holds checkFold to hash/fnv's FNV-1a on matching
// buffers (folded twice from different states, so a memo hit must depend
// on the incoming state), on single-byte flips at the first, middle and
// last byte, and on 0- and 1-byte buffers; and once a run has mismatched,
// the memo must store nothing.
func TestFoldMatchesFNV(t *testing.T) {
	for _, n := range append([]int{0, 1, 2, 255, 256, 257}, chaosSizes...) {
		for _, si := range [][2]int{{0, 0}, {1, 5}, {3, 39}, {2, 200}} {
			sender, iter := si[0], si[1]
			buf := formula(sender, iter, n)
			got := make([]byte, n)
			if fill(got, sender, iter); !bytes.Equal(got, buf) {
				t.Fatalf("fill(n=%d, sender=%d, iter=%d) differs from the formula", n, sender, iter)
			}
			flips := []int{-1} // -1: the buffer as written
			if n > 0 {
				flips = append(flips, 0, n/2, n-1)
			}
			for _, at := range flips {
				b := append([]byte(nil), buf...)
				if at >= 0 {
					b[at] ^= 0x40
				}
				what := fmt.Sprintf("n=%d sender=%d iter=%d flip=%d", n, sender, iter, at)
				ref := fnv.New64a()
				h := fnvOffset
				for rep := 0; rep < 2; rep++ {
					ref.Write(b)
					ok := true
					if h = checkFold(h, b, sender, iter, &ok); ok != (at < 0) {
						t.Fatalf("%s rep %d: ok = %v", what, rep, ok)
					}
					if h != ref.Sum64() {
						t.Fatalf("%s rep %d: fold %016x, hash/fnv %016x", what, rep, h, ref.Sum64())
					}
				}
			}
		}
	}

	// After a mismatch the next matching buffers fold from states no clean
	// run reaches; the memo must not grow by them.
	bad := formula(0, 7, 64)
	bad[10]++
	ok := true
	h := checkFold(fnvOffset, bad, 0, 7, &ok)
	before := memoLen()
	for iter := 0; iter < 40; iter++ {
		h = checkFold(h, formula(1, iter, 500), 1, iter, &ok)
	}
	if ok {
		t.Fatal("mismatch not reported")
	}
	if after := memoLen(); after != before {
		t.Fatalf("memo grew %d -> %d after a mismatch", before, after)
	}
}

// TestFoldConcurrent: the memo is shared by every run in the process, so
// goroutines folding the same payload sequence at once (storing and hitting
// the same keys) must each still get hash/fnv's digest. Run under -race.
func TestFoldConcurrent(t *testing.T) {
	ref := fnv.New64a()
	for iter := 0; iter < 24; iter++ {
		ref.Write(formula(2, iter, chaosSizes[iter%len(chaosSizes)]))
	}
	want := ref.Sum64()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, ok := fnvOffset, true
			for iter := 0; iter < 24; iter++ {
				h = checkFold(h, formula(2, iter, chaosSizes[iter%len(chaosSizes)]), 2, iter, &ok)
			}
			if h != want || !ok {
				t.Errorf("concurrent fold %016x ok=%v, hash/fnv %016x", h, ok, want)
			}
		}()
	}
	wg.Wait()
}

// TestFoldHitZeroAlloc: a matching buffer whose fold is memoised allocates
// nothing (the memo key is a plain struct, not boxed).
func TestFoldHitZeroAlloc(t *testing.T) {
	buf := formula(1, 3, 4096)
	ok := true
	checkFold(fnvOffset, buf, 1, 3, &ok)
	if _, hit := foldMemo[foldKey{fnvOffset, uint64(patternOff(1, 3)), 4096}]; !hit {
		t.Fatal("matching buffer not memoised")
	}
	if n := testing.AllocsPerRun(100, func() {
		checkFold(fnvOffset, buf, 1, 3, &ok)
	}); n != 0 || !ok {
		t.Fatalf("memo hit allocated %.1f objects per check (ok=%v)", n, ok)
	}
}

// BenchmarkWorkload runs each workload under the four fault presets at
// seed 1, as the benchmark's faulted workload does.
func BenchmarkWorkload(b *testing.B) {
	var pars []machine.Params
	for _, name := range faults.PresetNames() {
		plan, err := faults.Parse(name)
		if err != nil {
			b.Fatal(err)
		}
		par := machine.SP332()
		par.Faults = plan
		pars = append(pars, par)
	}
	for _, wl := range Workloads() {
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, par := range pars {
					if !wl.Run(par, 1).Ok {
						b.Fatal("run failed its verification")
					}
				}
			}
		})
	}
}
