package simlint_test

import (
	"testing"

	"splapi/internal/simlint"
	"splapi/internal/simlint/simlinttest"
)

// TestStaleAllows locks the stale-directive contract: an allow that
// suppresses a finding is fine, an allow whose finding has disappeared is
// stale, and an allow naming an unknown analyzer is stale with Unknown
// set. The fixture produces zero diagnostics — the only output is the
// stale reports.
func TestStaleAllows(t *testing.T) {
	units := simlinttest.Load(t, "staleallow/adapter")
	diags, stale := simlint.RunUnits(units, simlint.All())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	simlint.SortStale(stale)
	want := []simlint.StaleAllow{
		{File: "internal/simlint/testdata/src/staleallow/adapter/fixture.go", Line: 17, Analyzer: "walltime"},
		{File: "internal/simlint/testdata/src/staleallow/adapter/fixture.go", Line: 23, Analyzer: "wallclock", Unknown: true},
		{File: "internal/simlint/testdata/src/staleallow/adapter/fixture.go", Line: 29, Analyzer: "payloadretain", Unknown: true},
	}
	if len(stale) != len(want) {
		t.Fatalf("got %d stale allows, want %d:\n%v", len(stale), len(want), stale)
	}
	for i := range want {
		if stale[i] != want[i] {
			t.Errorf("stale[%d] = %+v, want %+v", i, stale[i], want[i])
		}
	}
}
