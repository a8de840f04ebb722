package simlint_test

import (
	"testing"

	"splapi/internal/simlint"
	"splapi/internal/simlint/simlinttest"
)

func TestBaregoroutine(t *testing.T) {
	simlinttest.Run(t, simlint.Baregoroutine,
		"baregoroutine/adapter", // sim-domain package: go statements and iter.Pull flagged
		"baregoroutine/sim",     // the kernel: its iter.Pull coroutines are the sanctioned ones
		"baregoroutine/bench",   // harness package: worker pools are fine
	)
}
