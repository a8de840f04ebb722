// Fixture: bare goroutines in a simulation-domain package must be flagged;
// the allow directive is the escape hatch for scheduler internals.
package adapter

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
