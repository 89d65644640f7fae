// Package lint implements gammavet, the suite's custom static analyzer.
// It enforces the determinism and concurrency invariants that back the
// golden-harness guarantee (seed → byte-identical datasets, figures and
// tables): no unsorted map iteration feeding output, no ambient wall
// time, no ambient randomness, no unguarded shared-map writes from
// pool-submitted work — plus the serving layer's hot-path invariants:
// no allocations reachable from //gamma:hotpath roots and no by-value
// traffic in atomic/lock-bearing types.
//
// The analyzer is written against stdlib go/ast, go/parser and go/types
// only — no golang.org/x/tools dependency — with a recursive source
// importer so every package in the module is fully type-checked. The
// interprocedural checks (walltime/ambientrand taint, hotalloc) run over
// a module-wide static call graph; see callgraph.go and DESIGN.md §13.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Severity grades a diagnostic.
type Severity string

const (
	// Error findings fail the build (exit nonzero).
	Error Severity = "error"
	// Warn findings are reported but do not affect the exit code.
	Warn Severity = "warn"
)

// Diagnostic is one finding with a stable check ID and file:line position.
// Interprocedural findings additionally carry the call chain from the
// anchoring root to the offending leaf.
type Diagnostic struct {
	Check    string         `json:"check"`
	Severity Severity       `json:"severity"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"` // module-relative, slash-separated
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	Chain    []Frame        `json:"chain,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one invariant the analyzer enforces over a type-checked
// package. Run receives the module call graph so checks can traverse
// beyond the package; a nil Run marks a pseudo-check (directive) that is
// always on and listed for discoverability.
type Check struct {
	ID  string
	Doc string
	Run func(pkg *Package, g *CallGraph, r *Reporter)
}

// Checks returns the full check set in stable order.
func Checks() []Check {
	return []Check{
		{ID: "maporder", Doc: "range over a map feeding a slice, writer/encoder, or channel without a sorted-keys idiom", Run: checkMapOrder},
		{ID: "walltime", Doc: "wall-clock reads outside the injectable Clock, direct or transitively from exported serving entry points", Run: checkWallTime},
		{ID: "ambientrand", Doc: "ambient randomness outside internal/rng seeded constructors, direct or transitively from exported entry points", Run: checkAmbientRand},
		{ID: "sharedmap", Doc: "package-level or struct-field map written from go/sched-submitted work without an associated mutex", Run: checkSharedMap},
		{ID: "hotalloc", Doc: "allocating constructs reachable from //gamma:hotpath roots (escape with a reasoned //gamma:coldpath)", Run: checkHotAlloc},
		{ID: "atomicdiscipline", Doc: "atomic/lock-bearing values copied, passed by value, or with atomic field addresses escaping", Run: checkAtomicDiscipline},
		{ID: directiveCheck, Doc: "malformed //gammavet:ignore directives and //gamma: annotations (always enabled)", Run: nil},
	}
}

// checkIDs is the set of valid IDs an ignore directive may name.
func checkIDs() map[string]bool {
	ids := map[string]bool{}
	for _, c := range Checks() {
		ids[c.ID] = true
	}
	return ids
}

// Reporter accumulates diagnostics for one check over one package.
type Reporter struct {
	check    string
	severity Severity
	fset     *token.FileSet
	rel      func(string) string
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	r.report(pos, nil, format, args...)
}

// ReportChainf records a finding at pos carrying the call chain that
// produced it (rendered by gammavet -chains and serialized under -json).
func (r *Reporter) ReportChainf(pos token.Pos, chain []Frame, format string, args ...any) {
	r.report(pos, chain, format, args...)
}

func (r *Reporter) report(pos token.Pos, chain []Frame, format string, args ...any) {
	p := r.fset.Position(pos)
	r.diags = append(r.diags, Diagnostic{
		Check:    r.check,
		Severity: r.severity,
		Pos:      p,
		File:     r.rel(p.Filename),
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Run loads every package matched by patterns under the module rooted at
// root, builds the module call graph, and returns all diagnostics, sorted
// by file, line, column, check. Suppression directives are applied;
// malformed directives surface as "directive" diagnostics.
func Run(root string, patterns []string, checks []Check) ([]Diagnostic, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Match(patterns)
	if err != nil {
		return nil, err
	}
	// The graph spans every module package the matched set pulled in, so
	// taint and hotalloc traversals cross package boundaries even when only
	// a subset of packages is being reported on.
	g := BuildCallGraph(loader.Loaded())
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, runPackage(pkg, g, checks)...)
	}
	Sort(all)
	return all, nil
}

// RunPackage runs the checks over one loaded package in isolation: the
// call graph covers just that package, so cross-package edges resolve only
// within it. Fixture tests use this; whole-module analysis goes through
// Run.
func RunPackage(pkg *Package, checks []Check) []Diagnostic {
	g := BuildCallGraph([]*Package{pkg})
	diags := runPackage(pkg, g, checks)
	Sort(diags)
	return diags
}

// runPackage applies checks and suppression directives to one package
// against a prebuilt graph.
func runPackage(pkg *Package, g *CallGraph, checks []Check) []Diagnostic {
	di := pkg.directiveInfo()
	diags := annotationDiags(pkg)
	for _, c := range checks {
		if c.Run == nil {
			continue
		}
		r := &Reporter{check: c.ID, severity: Error, fset: pkg.Fset, rel: pkg.Rel}
		c.Run(pkg, g, r)
		for _, d := range r.diags {
			if !di.dirs.suppresses(d) {
				diags = append(diags, d)
			}
		}
	}
	return diags
}

// Sort orders diagnostics by file, line, column, check ID, then message,
// so output is deterministic regardless of check or package visit order
// (chain diagnostics can anchor several messages to one declaration line).
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
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
