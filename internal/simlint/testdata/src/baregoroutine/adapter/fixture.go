// Fixture: bare goroutines in a simulation-domain package must be flagged;
// the allow directive is the escape hatch for scheduler internals.
package adapter

import "iter"

func fire(done chan struct{}) {
	go func() { // want `bare goroutine`
		done <- struct{}{}
	}()
}

func fireNamed(f func()) {
	go f() // want `bare goroutine`
}

func allowed(done chan struct{}) {
	//simlint:allow baregoroutine fixture demonstrating the directive
	go func() { done <- struct{}{} }()
}

// A coroutine is a goroutine: only package sim may make one.
func coroutines(seq iter.Seq[int], seq2 iter.Seq2[int, int]) {
	next, stop := iter.Pull(seq) // want `iter.Pull in a simulation package`
	defer stop()
	next()
	next2, stop2 := iter.Pull2(seq2) // want `iter.Pull2 in a simulation package`
	defer stop2()
	next2()
}
