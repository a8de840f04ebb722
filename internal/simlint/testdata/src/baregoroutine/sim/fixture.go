// Fixture: package sim owns the process coroutines, so its iter.Pull is not
// flagged; a go statement still is.
package sim

import "iter"

func start(body func()) func() (struct{}, bool) {
	next, _ := iter.Pull(func(yield func(struct{}) bool) { body() })
	return next
}

func spawn(f func()) {
	go f() // want `bare goroutine`
}
