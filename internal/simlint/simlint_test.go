package simlint_test

import (
	"path/filepath"
	"testing"

	"splapi/internal/simlint"
)

// TestTreeIsSimlintClean is the in-repo half of the determinism gate: the
// whole module (tests included) must produce zero findings, so `go test`
// enforces the invariants even without the CI workflow or cmd/simlint.
func TestTreeIsSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	ld, err := simlint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := simlint.Expand([]string{filepath.Join(ld.ModuleDir, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package directories found")
	}
	var units []*simlint.Unit
	for _, dir := range dirs {
		us, err := ld.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		units = append(units, us...)
	}
	// One Program over every unit: interprocedural effect summaries must
	// cross package boundaries exactly as they do under cmd/simlint.
	diags, stale := simlint.RunUnits(units, simlint.All())
	simlint.Sort(diags)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	// Zero stale allows: every //simlint:allow in the tree must still be
	// suppressing the finding it documents.
	simlint.SortStale(stale)
	for _, s := range stale {
		t.Errorf("%s", s)
	}
}

// TestAnalyzerScoping locks the domain classification the whole suite
// hangs off: sim-domain packages are checked, harness packages are not.
func TestAnalyzerScoping(t *testing.T) {
	for _, p := range []string{
		"splapi/internal/sim", "splapi/internal/switchnet", "splapi/internal/adapter",
		"splapi/internal/hal", "splapi/internal/lapi", "splapi/internal/pipes",
		"splapi/internal/mpci", "splapi/internal/mpi", "splapi/internal/cluster",
		"splapi/internal/nas", "splapi/internal/faults",
	} {
		if !simlint.InSimDomain(p) {
			t.Errorf("InSimDomain(%q) = false, want true", p)
		}
	}
	for _, p := range []string{
		"splapi", "splapi/internal/sweep", "splapi/internal/bench",
		"splapi/internal/trace", "splapi/internal/machine",
		"splapi/internal/simlint", "splapi/internal/simlint/simlinttest",
		"splapi/cmd/spsim", "splapi/cmd/simlint", "splapi/examples/quickstart",
		"splapi/internal/campaign", "splapi/internal/campaign/cache",
		"splapi/internal/campaign/queue", "splapi/internal/campaign/server",
		"splapi/internal/campaign/mcp", "splapi/cmd/spsimd",
	} {
		if simlint.InSimDomain(p) {
			t.Errorf("InSimDomain(%q) = true, want false", p)
		}
		if !simlint.InHostDomain(p) {
			t.Errorf("InHostDomain(%q) = false, want true", p)
		}
	}
	// The domains partition, never overlap: a package in both would be
	// gated and exempt at once.
	for _, p := range []string{"splapi/internal/sim", "splapi/internal/lapi", "splapi/internal/faults"} {
		if simlint.InHostDomain(p) {
			t.Errorf("InHostDomain(%q) = true for a sim-domain package", p)
		}
	}
	for _, p := range []string{
		"splapi/internal/switchnet", "splapi/internal/adapter",
		"splapi/internal/hal", "splapi/internal/lapi", "splapi/internal/faults",
	} {
		if !simlint.InInjectionBoundary(p) {
			t.Errorf("InInjectionBoundary(%q) = false, want true", p)
		}
	}
	if simlint.InInjectionBoundary("splapi/internal/mpi") {
		t.Error("InInjectionBoundary(mpi) = true, want false (mpi sits above the boundary)")
	}
}

// TestEveryPackageClassified forces a domain decision for every package
// in the module: a new package must be named in simDomain or hostDomain
// (or live under cmd/ or examples/) before the tree is green. Without
// this, a package could dodge every determinism gate by merely existing.
func TestEveryPackageClassified(t *testing.T) {
	ld, err := simlint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := simlint.Expand([]string{filepath.Join(ld.ModuleDir, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package directories found")
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(ld.ModuleDir, dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgPath := "splapi"
		if rel != "." {
			pkgPath = "splapi/" + filepath.ToSlash(rel)
		}
		if !simlint.Classified(pkgPath) {
			t.Errorf("package %s is in neither simDomain nor hostDomain: classify it in internal/simlint/simlint.go", pkgPath)
		}
		if simlint.InSimDomain(pkgPath) && simlint.InHostDomain(pkgPath) {
			t.Errorf("package %s is classified in both domains", pkgPath)
		}
	}
}
