package switchnet

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation tests skip under it (its instrumentation allocates).
// The race-tagged init in raceon_test.go flips it.
var raceEnabled = false
