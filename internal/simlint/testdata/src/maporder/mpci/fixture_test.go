package mpci

// A test file of a simulation package is checked like the package itself.
func countPeers(s *sched) int {
	n := 0
	for range s.peers { // want `range over map s\.peers`
		n++
	}
	return n
}
