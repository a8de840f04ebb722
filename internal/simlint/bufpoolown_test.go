package simlint_test

import (
	"testing"

	"splapi/internal/simlint"
	"splapi/internal/simlint/simlinttest"
)

// TestBufpoolown includes the acceptance fixtures for the pool rules: the
// cross-branch double-Put (one path returns the buffer, the fall-through
// returns it again) must be flagged, along with use-after-Put, sub-slice
// Put, leak-on-all-paths and caller-owned Put; the adapter fixture also
// covers the delivery-owner exemption (a registered bypass handler owns its
// packet's payload), and the hal fixture the RDMA region lifetime rule
// (writing through a deregistered region must flag). The pipes fixture pins
// the scope: pipes is a simulation package off the injection boundary, so
// the pool rules apply there and the retention rules do not.
func TestBufpoolown(t *testing.T) {
	simlinttest.Run(t, simlint.Bufpoolown,
		"bufpoolown/adapter",
		"bufpoolown/hal",
		"bufpoolown/pipes", // off the boundary: pool rules only
	)
}

// TestPayloadretain runs the retention fixtures through the same analyzer:
// the pre-fix switchnet fabric injection path (payload forwarded into
// in-flight packets without a snapshot, the duplicate aliasing the
// original) must be flagged on the injection boundary.
func TestPayloadretain(t *testing.T) {
	simlinttest.Run(t, simlint.Bufpoolown,
		"payloadretain/switchnet", // pre-fix fabric.go pattern (must flag)
		"payloadretain/hal",       // every retention shape + copy idioms
		"payloadretain/tracelog",  // a trace event retaining payload bytes (scalars only!)
		"payloadretain/faults",    // injector mutates in place; retention flagged
		"payloadretain/adapter",   // registered delivery handlers own their packets
	)
}
