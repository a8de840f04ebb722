// Fixture: stale //simlint:allow detection. The first directive earns its
// keep by suppressing a real walltime finding; the second waives a finding
// that no longer exists; the last two name analyzers that do not exist.
// The last three must be reported as stale (see TestStaleAllows).
package adapter

import "time"

// now is intentionally wall-clock for this fixture.
//
//simlint:allow walltime fixture: intentional wall-clock read
func now() time.Time { return time.Now() }

// staleBlock once contained a time.Sleep; the sleep was removed but the
// directive was left behind.
//
//simlint:allow walltime the sleep below was removed in a refactor
func staleBlock() {}

// typoBlock misspells the analyzer name, so the directive can never
// suppress anything.
//
//simlint:allow wallclock suppressing a wall-clock read
func typoBlock() {}

// retiredBlock names an analyzer whose rules were folded into bufpoolown:
// the old name is unknown now, so the directive suppresses nothing.
//
//simlint:allow payloadretain retention across the injection boundary
func retiredBlock() {}
