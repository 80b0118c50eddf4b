package lint

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"testing"
)

// The fixture harness is a minimal analysistest: every fixture file
// marks expected diagnostics with trailing comments of the form
//
//	code() // want `regex` `another regex`
//
// and the test fails on any unmatched expectation or unexpected
// diagnostic. Expectations match by (file, line, message-regex).

var wantMarkRE = regexp.MustCompile("`([^`]+)`")

type wantExpectation struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	matched bool
}

// loadWants scans a fixture directory for want comments.
func loadWants(t *testing.T, dir string) []*wantExpectation {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var wants []*wantExpectation
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := wantIndex(c.Text)
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantMarkRE.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", path, pos.Line, m[1], err)
					}
					wants = append(wants, &wantExpectation{
						file: filepath.Base(path),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// wantIndex returns the offset of the "want" marker in a comment, or
// -1. Only "// want" (optionally after whitespace) counts, so prose
// mentioning the word does not create expectations.
func wantIndex(comment string) int {
	re := regexp.MustCompile(`^//\s*want `)
	if m := re.FindString(comment); m != "" {
		return len(m)
	}
	return -1
}

func TestAnalyzerFixtures(t *testing.T) {
	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"noalloc", "metricsname", "buildtag", "lockcheck", "atomiccheck", "golifecycle"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			pkg, err := LoadDir(moduleRoot, dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags, err := RunAnalyzers(pkg, All())
			if err != nil {
				t.Fatalf("running analyzers: %v", err)
			}
			wants := loadWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want expectations", dir)
			}
			for _, d := range diags {
				base := filepath.Base(d.Pos.Filename)
				found := false
				for _, w := range wants {
					if w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
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
					t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestRealTreeClean is the in-repo guarantee behind the CI gate: the
// analyzers must pass the production tree with zero findings.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(moduleRoot)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
