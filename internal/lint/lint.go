// Package lint is dohpool's in-tree static-analysis suite: a small,
// dependency-free analyzer framework in the shape of
// golang.org/x/tools/go/analysis (which this module cannot depend on),
// plus the six project-specific analyzers that prove the serving fast
// path's invariants at compile time:
//
//   - noalloc: functions annotated //dohlint:noalloc must not contain
//     constructs known to allocate (fmt calls, string concatenation,
//     make/new, closures, go statements, boxing conversions). The
//     companion escape gate (see escape.go and `dohlint escape`) closes
//     the loop with the compiler's own -m escape diagnostics.
//   - metricsname: metric registrations use compile-time-constant names
//     matching dohpool_[a-z0-9_]+ with conventional type suffixes, and
//     never happen inside a //dohlint:noalloc hot path.
//   - buildtag: files pinning syscall numbers carry explicit //go:build
//     constraints, and no file references a platform-constrained name
//     on a platform where nothing declares it.
//   - lockcheck: builds a per-package lock-acquisition graph from
//     sync.Mutex/RWMutex call sites, reports acquisition-order cycles,
//     and forbids blocking operations (network I/O, channel operations,
//     Querier/Exchanger invocations, time.Sleep) while a mutex
//     annotated //dohlint:hotlock is held.
//   - atomiccheck: a field touched anywhere via sync/atomic must be
//     accessed atomically at every other site, and 64-bit atomics must
//     sit at 8-byte-aligned offsets for 32-bit platforms.
//   - golifecycle: every go statement in the long-lived packages
//     (core, admin, udpbatch, loadgen) must be joined by a shutdown
//     path — a WaitGroup.Done matched by a Wait, or a close matched by
//     a receive — unless waived line-by-line as fire-and-forget.
//
// Diagnostics on a given line can be waived with a trailing (or
// immediately preceding) comment containing `dohlint:allow`, optionally
// scoped to specific analyzers: `dohlint:allow(noalloc,metricsname)`.
// An unscoped `dohlint:allow` waives every analyzer on that line. Each
// waiver should say why — the escape hatch is for documented,
// understood exceptions (an amortised growth path, a daemon-lifetime
// goroutine reaped by Close), not for silencing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named static check, runnable over a type-checked
// package via a Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow-scopes.
	Name string
	// Doc is the one-paragraph description `dohlint help` prints.
	Doc string
	// Run executes the check, reporting findings through the Pass.
	Run func(*Pass) error
}

// All returns the full dohlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{NoAlloc, MetricsName, BuildTag, LockCheck, AtomicCheck, GoLifecycle}
}

// Diagnostic is one finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed, type-checked source files.
	Files []*ast.File
	// Pkg and TypesInfo hold the type-checker's results. BuildTag, the
	// one purely syntactic analyzer, tolerates both being nil.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package directory on disk, for analyzers (buildtag)
	// that must see sibling files excluded from this build configuration.
	Dir string

	diags *[]Diagnostic
	// allow maps file name → line → analyzer names waived there (nil
	// slice = all analyzers). Populated lazily from comment text.
	allow map[string]map[int][]string
}

// Reportf records a diagnostic at pos unless a dohlint:allow waiver
// covers that line for this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.waived(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// waived reports whether an allow-comment covers position for the
// running analyzer.
func (p *Pass) waived(position token.Position) bool {
	scopes, ok := p.allow[position.Filename][position.Line]
	if !ok {
		return false
	}
	if scopes == nil {
		return true
	}
	for _, s := range scopes {
		if s == p.Analyzer.Name {
			return true
		}
	}
	return false
}

// allowRE matches a waiver comment: `dohlint:allow` with an optional
// parenthesised analyzer list.
var allowRE = regexp.MustCompile(`dohlint:allow(?:\(([a-z, ]+)\))?`)

// noteAllowComments indexes f's dohlint:allow comments so Reportf can
// honour them. A waiver covers its own line and the next one, so it can
// trail the offending expression or sit on its own line above it.
// Analyzers that parse files outside Pass.Files (buildtag) call this
// for each extra file.
func (p *Pass) noteAllowComments(f *ast.File) {
	if p.allow == nil {
		p.allow = make(map[string]map[int][]string)
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			var scopes []string // nil = every analyzer
			if m[1] != "" {
				for _, s := range strings.Split(m[1], ",") {
					if s = strings.TrimSpace(s); s != "" {
						scopes = append(scopes, s)
					}
				}
			}
			position := p.Fset.Position(c.Pos())
			lines := p.allow[position.Filename]
			if lines == nil {
				lines = make(map[int][]string)
				p.allow[position.Filename] = lines
			}
			for _, line := range []int{position.Line, position.Line + 1} {
				if scopes == nil {
					lines[line] = nil
					continue
				}
				if cur, seen := lines[line]; !seen || cur != nil {
					lines[line] = append(cur, scopes...)
				}
			}
		}
	}
}

// noallocDirective is the annotation contract: a function whose doc
// comment carries this directive promises not to allocate, and both the
// noalloc analyzer and the escape gate hold it to that.
const noallocDirective = "//dohlint:noalloc"

// hasNoallocDirective reports whether doc contains the directive.
func hasNoallocDirective(doc *ast.CommentGroup) bool {
	return hasDirective(doc, noallocDirective)
}

// hasDirective reports whether a comment group carries the given
// //dohlint: directive. Directive comments are excluded from
// (*ast.CommentGroup).Text, so the raw list is inspected.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// noallocFuncs returns the functions in file annotated //dohlint:noalloc.
func noallocFuncs(file *ast.File) []*ast.FuncDecl {
	var fns []*ast.FuncDecl
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && hasNoallocDirective(fn.Doc) {
			fns = append(fns, fn)
		}
	}
	return fns
}

// isTestFile reports whether the file position belongs to a _test.go
// file. Every analyzer except buildtag skips test files: annotations
// live in production code, and tests legitimately register throwaway
// metrics and allocate freely.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// RunAnalyzers executes each analyzer over the package and returns the
// combined diagnostics in stable (position, analyzer) order.
func RunAnalyzers(pkg *LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Dir:       pkg.Dir,
			diags:     &diags,
		}
		for _, f := range pkg.Files {
			pass.noteAllowComments(f)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
