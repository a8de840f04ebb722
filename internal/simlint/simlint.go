// Package simlint is the repository's determinism-invariant analyzer suite.
//
// The simulator's core guarantee — bit-identical virtual-time runs for a
// given (program, seed) pair — is easy to break silently: one wall-clock
// read, one bare goroutine, one map iteration whose order leaks into the
// event schedule, or one payload retained by reference across the switch
// injection boundary (the PR 1 aliasing bug) and results stop being
// reproducible while every functional test still passes. simlint encodes
// those invariants as static analyzers so they are enforced mechanically
// instead of by reviewer memory:
//
//	walltime      — no time.Now/Sleep/Since/... in simulation packages
//	globalrand    — no package-level math/rand; randomness flows through
//	                sim.Engine.Rand()
//	maporder      — no map iteration at all: no range over a map, no
//	                maps.Keys/Values/All (or DeleteFunc/EqualFunc)
//	baregoroutine — no `go` statements in simulation packages; use
//	                sim.Engine.Spawn
//	handlerctx    — code reachable from a registered LAPI header handler
//	                (or an Enhanced-regime completion handler) must not
//	                block, re-enter LAPI, or Spawn; interprocedural, with
//	                effect summaries propagated across packages (facts.go)
//	bufpoolown    — payload ownership: no use-after-Put, double-Put,
//	                Put-of-subslice, caller-owned Put, or leak-on-all-paths
//	                of BufPool buffers; on the injection boundary
//	                (switchnet, adapter, hal, lapi, tracelog, faults), no
//	                retaining a caller-owned []byte without a copy
//
// A finding that is intentional is suppressed in source with a directive on
// the same line or the line directly above:
//
//	//simlint:allow <analyzer> <reason>
//
// The suite deliberately depends only on the standard library (go/ast,
// go/types): the usual golang.org/x/tools/go/analysis framework is an
// external module and this repository builds fully offline with zero
// dependencies. The Analyzer/Pass API mirrors the analysis package closely
// enough that migrating onto it later is mechanical.
package simlint

import (
	"fmt"
	"go/token"
	"path"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// AppliesTo reports whether the analyzer runs on the package with the
	// given import path (scoping: simulation domain vs. harness code).
	AppliesTo func(pkgPath string) bool
	// Run analyzes one type-checked package, reporting via pass.Reportf.
	Run func(pass *Pass)
}

// A Diagnostic is one finding. File is module-relative when possible.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Sort orders diagnostics by file, line, column, analyzer, message.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// A Pass carries one analyzer run over one package unit. Prog is the
// module-wide Program the unit was loaded into; interprocedural analyzers
// (handlerctx) read cross-package effect summaries from it.
type Pass struct {
	Analyzer *Analyzer
	Unit     *Unit
	Prog     *Program

	diags  *[]Diagnostic
	allows map[allowKey]*allowDirective
}

// Reportf records a finding at pos unless an allow directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Unit.Fset.Position(pos)
	file := p.Unit.RelFile(position.Filename)
	if d := p.allows[allowKey{file, position.Line, p.Analyzer.Name}]; d != nil {
		d.used = true
		return
	}
	if d := p.allows[allowKey{file, position.Line - 1, p.Analyzer.Name}]; d != nil {
		d.used = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowKey identifies one suppressed (file, line, analyzer) triple.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowDirective is one //simlint:allow occurrence; used records whether it
// suppressed at least one diagnostic (a never-used directive is stale).
type allowDirective struct {
	used bool
}

// A StaleAllow is a //simlint:allow directive that did nothing: either the
// analyzer name is unknown, or the named analyzer ran over the package and
// reported nothing at the directive. Stale directives rot into misleading
// documentation — the invariant they claim to waive is no longer waived —
// so cmd/simlint reports them on their own exit path.
type StaleAllow struct {
	File     string
	Line     int
	Analyzer string
	// Unknown is set when Analyzer names no registered analyzer.
	Unknown bool
}

func (s StaleAllow) String() string {
	if s.Unknown {
		return fmt.Sprintf("%s:%d: stale //simlint:allow: unknown analyzer %q (see simlint -list)",
			s.File, s.Line, s.Analyzer)
	}
	return fmt.Sprintf("%s:%d: stale //simlint:allow %s: no diagnostic suppressed here or on the next line",
		s.File, s.Line, s.Analyzer)
}

// collectAllows scans the unit's comments for //simlint:allow directives.
// A directive suppresses findings of the named analyzer on its own line and
// on the line directly below it.
func collectAllows(u *Unit) map[allowKey]*allowDirective {
	allows := make(map[allowKey]*allowDirective)
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "simlint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "simlint:allow"))
				if len(fields) == 0 {
					continue // malformed directive: no analyzer name
				}
				pos := u.Fset.Position(c.Pos())
				allows[allowKey{u.RelFile(pos.Filename), pos.Line, fields[0]}] = &allowDirective{}
			}
		}
	}
	return allows
}

// RunUnits builds one Program over all units, runs every applicable
// analyzer over every unit, and returns the findings plus the stale allow
// directives (both unsorted; callers aggregate and Sort). Loading every
// unit into a single Program is what makes cross-package facts work: the
// effect summary of a function in unit A is visible when an analyzer
// reports in unit B.
func RunUnits(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, []StaleAllow) {
	prog := NewProgram(units)
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	var stale []StaleAllow
	for _, u := range units {
		allows := collectAllows(u)
		ran := make(map[string]bool)
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(u.Path) {
				continue
			}
			ran[a.Name] = true
			a.Run(&Pass{Analyzer: a, Unit: u, Prog: prog, diags: &diags, allows: allows})
		}
		for k, d := range allows {
			switch {
			case !known[k.analyzer]:
				stale = append(stale, StaleAllow{File: k.file, Line: k.line, Analyzer: k.analyzer, Unknown: true})
			case ran[k.analyzer] && !d.used:
				stale = append(stale, StaleAllow{File: k.file, Line: k.line, Analyzer: k.analyzer})
			}
		}
	}
	return diags, stale
}

// SortStale orders stale-allow reports by file, line, analyzer.
func SortStale(stale []StaleAllow) {
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunUnit runs every applicable analyzer over one package unit and returns
// the findings (unsorted; callers aggregate and Sort). The unit gets a
// private single-unit Program; use RunUnits for cross-package facts.
func RunUnit(u *Unit, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunUnits([]*Unit{u}, analyzers)
	return diags
}

// All returns the full analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Walltime, Globalrand, Maporder, Baregoroutine, Handlerctx, Bufpoolown}
}

// simDomain names the packages (by final import-path element) that run in
// simulated virtual time. Harness code (sweep, bench, trace, machine,
// cmd/*, examples/*) is deliberately outside the domain: it measures and
// drives simulations from the host and may use the wall clock freely.
var simDomain = map[string]bool{
	"sim":       true,
	"switchnet": true,
	"adapter":   true,
	"hal":       true,
	"lapi":      true,
	"pipes":     true,
	"mpci":      true,
	"mpi":       true,
	"cluster":   true,
	"nas":       true,
	"tracelog":  true,
	// faults runs inside the fabric/adapter hot paths and draws all its
	// randomness from the engine RNG; wall-clock or global-rand use there
	// would break scripted-plan determinism.
	"faults": true,
}

// injectionBoundary names the packages where caller-owned payload bytes
// cross into the in-flight packet world (the PR 1 bug class).
var injectionBoundary = map[string]bool{
	"switchnet": true,
	"adapter":   true,
	"hal":       true,
	"lapi":      true,
	// tracelog observes every layer's payloads as they fly past; an event
	// record that retained the bytes instead of scalars would be the PR 1
	// aliasing bug wearing an observability costume.
	"tracelog": true,
	// faults mutates in-flight payloads (CorruptBytes) and must never
	// retain or pool-return bytes it does not own.
	"faults": true,
}

// hostDomain names the packages (by final import-path element) that run
// on the host side of the simulator: harness, measurement, tooling, and
// the spsimd service layer. Host packages may use the wall clock, bare
// goroutines, and global randomness freely — none of it can reach a
// simulation's event schedule, which consumes only engine-derived
// entropy and virtual time.
//
// The classification is deliberately explicit rather than "everything not
// in simDomain": TestEveryPackageClassified fails the build for a package
// in neither map, so adding a package forces a recorded decision about
// which side of the determinism boundary it lives on, instead of
// scattering //simlint:allow directives or silently escaping the gates.
var hostDomain = map[string]bool{
	"splapi":      true, // module root: public façade and paper benchmarks
	"sweep":       true,
	"bench":       true,
	"trace":       true,
	"machine":     true,
	"chaos":       true,
	"cliconf":     true,
	"prof":        true,
	"simlint":     true,
	"simlinttest": true,
	// The spsimd service layer drives deterministic simulations from the
	// host: job scheduling, result caching, and transport are wall-clock
	// code by nature and sit entirely outside the engines they launch.
	"campaign": true,
	"cache":    true,
	"queue":    true,
	"server":   true,
	"mcp":      true,
}

// InSimDomain reports whether pkgPath is a simulation-domain package.
func InSimDomain(pkgPath string) bool { return simDomain[path.Base(pkgPath)] }

// InHostDomain reports whether pkgPath is host-side code. Commands and
// examples are host by construction; everything else must be listed.
func InHostDomain(pkgPath string) bool {
	if hostDomain[path.Base(pkgPath)] {
		return true
	}
	return strings.Contains(pkgPath, "/cmd/") || strings.Contains(pkgPath, "/examples/")
}

// Classified reports whether pkgPath has an explicit domain assignment.
// Unclassified packages are a gate failure, not a default.
func Classified(pkgPath string) bool { return InSimDomain(pkgPath) || InHostDomain(pkgPath) }

// InInjectionBoundary reports whether pkgPath handles the packet injection
// boundary.
func InInjectionBoundary(pkgPath string) bool { return injectionBoundary[path.Base(pkgPath)] }
