// Package analysistest runs one analyzer over a self-contained testdata
// module and checks its findings against `// want "regex"` comments, the
// same convention golang.org/x/tools/go/analysis/analysistest uses: a want
// comment on a line means the analyzer must report a diagnostic on that
// line matching each quoted regex, and any diagnostic without a matching
// want fails the test. Each testdata module is a real module (own go.mod,
// stdlib-only imports) so the loader exercises the exact `go list -export`
// path cmd/alewife-lint uses.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"alewife/internal/analysis"
)

// quotedRe extracts the Go-quoted regex operands of a want comment —
// backquoted (the usual form, since regexes are full of backslashes) or
// double-quoted. The backquote alternative comes first so a double quote
// inside a backquoted operand is not split out as its own operand.
var quotedRe = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the module rooted at moduleDir (patterns default to ./...),
// applies the analyzer to every package, and reports mismatches between
// diagnostics and want comments through t.
func Run(t *testing.T, moduleDir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(moduleDir, patterns...)
	if err != nil {
		t.Fatalf("loading %s: %v", moduleDir, err)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		wants := collectWants(t, pkg)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			found := false
			for _, w := range wants {
				if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
					w.matched = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
			}
		}
	}
}

func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(rest, -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: malformed want operand %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}
