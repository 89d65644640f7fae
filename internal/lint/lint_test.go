package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// expectation is one parsed `// want` comment. Wants anchor to their own
// line; `want-1` / `want+1` shift the anchor so diagnostics on comment
// lines (malformed directives) stay assertable.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var (
	wantRe    = regexp.MustCompile("^//\\s*want([+-][0-9]+)?\\s+(.*)$")
	patternRe = regexp.MustCompile("`([^`]+)`")
)

// parseWants extracts expectations from a loaded fixture package.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s: bad want offset %q", pos, m[1])
					}
					line += off
				}
				pats := patternRe.FindAllStringSubmatch(m[2], -1)
				if len(pats) == 0 {
					t.Fatalf("%s: want comment without a `pattern`", pos)
				}
				for _, p := range pats {
					re, err := regexp.Compile(p[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern: %v", pos, err)
					}
					wants = append(wants, &expectation{
						file: pkg.Rel(pos.Filename), line: line, pattern: re,
					})
				}
			}
		}
	}
	return wants
}

// checksByID selects a subset of the registered checks.
func checksByID(t *testing.T, ids ...string) []Check {
	t.Helper()
	byID := map[string]Check{}
	for _, c := range Checks() {
		byID[c.ID] = c
	}
	var out []Check
	for _, id := range ids {
		c, ok := byID[id]
		if !ok {
			t.Fatalf("unknown check %q", id)
		}
		out = append(out, c)
	}
	return out
}

// TestFixtures drives every check over its testdata package and diffs
// actual diagnostics against the // want expectations — positive and
// negative cases both: a diagnostic with no want or a want with no
// diagnostic each fail.
func TestFixtures(t *testing.T) {
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fixture string
		checks  []string
	}{
		{"maporder", []string{"maporder"}},
		{"walltime", []string{"walltime"}},
		{"ambientrand", []string{"ambientrand"}},
		{"allowed/internal/rng", []string{"ambientrand"}}, // allowlist: zero wants
		{"sharedmap", []string{"sharedmap"}},
		{"sharedmapguarded", []string{"sharedmap"}}, // guarded: zero wants
		{"httphandler", []string{"sharedmap", "walltime"}},
		{"directive", []string{"walltime"}},
		{"hotalloc", []string{"hotalloc"}},
		{"atomicdiscipline", []string{"atomicdiscipline"}},
		{"taint/internal/serve", []string{"walltime", "ambientrand"}},
		{"annotation", []string{"hotalloc"}}, // annotation errors surface via the directive pseudo-check
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "lint", "testdata", "src", filepath.FromSlash(tc.fixture))
			pkg, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
			}
			diags := RunPackage(pkg, checksByID(t, tc.checks...))
			wants := parseWants(t, pkg)
			for _, d := range diags {
				found := false
				for _, w := range wants {
					if !w.matched && w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// TestSelfRun enforces the analyzer's acceptance bar on the real tree:
// all seven checks over every package in the module, zero findings. It
// also covers the allowlists in the negative — internal/sched/clock.go
// touches time.Now/time.After and internal/rng builds raw PCG sources,
// and neither may be flagged — and the hot-path
// annotations seeded on the serving and filter-matching paths, which must
// hold allocation-free under the interprocedural hotalloc sweep.
func TestSelfRun(t *testing.T) {
	root := moduleRoot(t)
	diags, err := Run(root, []string{"./..."}, Checks())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("self-run finding: %s", d)
	}
}

// TestDiagnosticOrdering pins the output contract: diagnostics sort by
// file, line, column, check regardless of insertion order.
func TestDiagnosticOrdering(t *testing.T) {
	diags := []Diagnostic{
		{File: "b.go", Line: 2, Col: 1, Check: "walltime"},
		{File: "a.go", Line: 9, Col: 3, Check: "maporder"},
		{File: "a.go", Line: 9, Col: 3, Check: "ambientrand"},
		{File: "a.go", Line: 2, Col: 7, Check: "sharedmap"},
	}
	Sort(diags)
	got := ""
	for _, d := range diags {
		got += d.File + ":" + strconv.Itoa(d.Line) + ":" + d.Check + " "
	}
	want := "a.go:2:sharedmap a.go:9:ambientrand a.go:9:maporder b.go:2:walltime "
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}
