//go:build go1.23

package sim

import "iter"

// start makes p a coroutine: p.next enters it and p.suspend returns to the
// enterer (iter needs go1.23, which the build line grants this file alone).
func (p *Proc) start() {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.suspend = yield
		p.run()
	})
}
