package sweep

// raceEnabled reports whether the race detector is compiled in; the
// committed-artifact regeneration skips under it, like the alloc gates in
// internal/sim. The race-tagged init in raceon_test.go flips it.
var raceEnabled = false
