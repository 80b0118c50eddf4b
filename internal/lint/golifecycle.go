package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoLifecycle enforces goroutine-lifecycle hygiene in the long-lived
// packages (core, admin, udpbatch, loadgen): every go statement must be
// joined by a shutdown path, so that Close/Stop really quiesces the
// process and tests cannot leak goroutines that keep sockets and
// buffers alive past teardown.
//
// "Joined" is established structurally, using the same identity scheme
// as lockcheck so fields, package variables and locals all resolve:
//
//   - the goroutine body calls Done (possibly deferred) on a WaitGroup
//     that some function in the package Waits on, or
//   - the goroutine body closes a channel that some function in the
//     package receives from (<-ch, range, or a select case).
//
// Spawn targets are resolved through function literals, package-level
// functions and methods, and locals assigned a literal in the same
// function. A target the analyzer cannot resolve statically is
// reported too: an unresolvable spawn is unauditable by humans for the
// same reason.
//
// Genuine fire-and-forget goroutines, such as bounded hedged probes,
// are waived line-by-line with a scoped allow comment that documents why
// the goroutine cannot outlive anything that matters.
var GoLifecycle = &Analyzer{
	Name: "golifecycle",
	Doc:  "go statements in long-lived packages must be joined by a shutdown path",
	Run:  runGoLifecycle,
}

// lifecyclePackages lists the long-lived packages golifecycle gates.
var lifecyclePackages = []string{
	"internal/core",
	"internal/admin",
	"internal/udpbatch",
	"internal/loadgen",
}

func lifecycleGated(importPath string) bool {
	if importPath == "golifecycle" {
		return true // the fixture package
	}
	for _, p := range lifecyclePackages {
		if importPath == p || strings.HasSuffix(importPath, "/"+p) {
			return true
		}
	}
	return false
}

func runGoLifecycle(pass *Pass) error {
	importPath := ""
	if pass.Pkg != nil {
		importPath = pass.Pkg.Path()
	}
	if !lifecycleGated(importPath) {
		return nil
	}
	g := &lifecycleChecker{
		pass:    pass,
		waits:   make(map[string]bool),
		recvs:   make(map[string]bool),
		decls:   make(map[*types.Func]*ast.FuncDecl),
		visited: make(map[*ast.BlockStmt]bool),
	}
	g.collectEvidence()
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			goStmt, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			g.checkGoStmt(goStmt)
			return true
		})
	}
	return nil
}

type lifecycleChecker struct {
	pass *Pass
	// waits holds identities of WaitGroups some function Waits on.
	waits map[string]bool
	// recvs holds identities of channels some function receives from.
	recvs map[string]bool
	// decls maps package function objects to their declarations.
	decls map[*types.Func]*ast.FuncDecl
	// visited guards against join-evidence recursion through cyclic
	// call chains.
	visited map[*ast.BlockStmt]bool
}

// collectEvidence sweeps the package for the two join signals —
// WaitGroup.Wait calls and channel receives — and indexes function
// declarations for spawn-target resolution.
func (g *lifecycleChecker) collectEvidence() {
	for _, file := range g.pass.Files {
		if isTestFile(g.pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := g.pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					g.decls[obj] = fn
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if fn, ok := g.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Name() == "Wait" {
						if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
							isPkgNamed(sig.Recv().Type(), "sync", "WaitGroup") {
							if id := syncIdentity(g.pass, sel.X); id != "" {
								g.waits[id] = true
							}
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if id := syncIdentity(g.pass, n.X); id != "" {
						g.recvs[id] = true
					}
				}
			case *ast.RangeStmt:
				if t := g.pass.TypesInfo.Types[n.X].Type; t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						if id := syncIdentity(g.pass, n.X); id != "" {
							g.recvs[id] = true
						}
					}
				}
			}
			return true
		})
	}
}

// checkGoStmt resolves the spawned body and reports when no join
// evidence reaches it.
func (g *lifecycleChecker) checkGoStmt(goStmt *ast.GoStmt) {
	body, resolved := g.spawnBody(goStmt)
	if !resolved {
		g.pass.Reportf(goStmt.Pos(), "cannot statically resolve the goroutine target, so its lifecycle is unauditable; spawn a literal or named function, or waive this line")
		return
	}
	g.visited = map[*ast.BlockStmt]bool{}
	if !g.joined(body, 0) {
		g.pass.Reportf(goStmt.Pos(), "goroutine is not joined by any shutdown path (no WaitGroup.Done matched by a Wait, no close matched by a receive)")
	}
}

// spawnBody resolves the body the go statement runs: a literal, a
// package function/method, or a local variable assigned a literal in
// the enclosing function.
func (g *lifecycleChecker) spawnBody(goStmt *ast.GoStmt) (*ast.BlockStmt, bool) {
	switch fun := ast.Unparen(goStmt.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, true
	case *ast.Ident:
		switch obj := g.pass.TypesInfo.Uses[fun].(type) {
		case *types.Func:
			if decl, ok := g.decls[obj]; ok {
				return decl.Body, true
			}
		case *types.Var:
			if lit := g.literalAssignedTo(obj, goStmt); lit != nil {
				return lit.Body, true
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := g.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if orig := obj.Origin(); orig != nil {
				obj = orig
			}
			if decl, ok := g.decls[obj]; ok {
				return decl.Body, true
			}
		}
	}
	return nil, false
}

// literalAssignedTo finds the function literal assigned to local
// variable v in the file that contains the go statement (the
// `attempt := func(...) {...}; go attempt(...)` idiom).
func (g *lifecycleChecker) literalAssignedTo(v *types.Var, goStmt *ast.GoStmt) *ast.FuncLit {
	var file *ast.File
	for _, f := range g.pass.Files {
		if f.Pos() <= goStmt.Pos() && goStmt.Pos() <= f.End() {
			file = f
			break
		}
	}
	if file == nil {
		return nil
	}
	var lit *ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := g.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = g.pass.TypesInfo.Uses[id]
			}
			if obj != v {
				continue
			}
			if fl, ok := ast.Unparen(assign.Rhs[i]).(*ast.FuncLit); ok {
				lit = fl
			} else {
				lit = nil // reassigned to something unresolvable
			}
		}
		return true
	})
	return lit
}

// joined reports whether the goroutine body produces join evidence:
// a Done on a waited WaitGroup or a close of a received-from channel,
// directly or through one level of same-package calls (the body often
// just runs a named method whose defer does the signalling).
func (g *lifecycleChecker) joined(body *ast.BlockStmt, depth int) bool {
	if body == nil || g.visited[body] || depth > 3 {
		return false
	}
	g.visited[body] = true
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if b, ok := g.pass.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "close" && len(call.Args) == 1 {
				if id := syncIdentity(g.pass, call.Args[0]); id != "" && g.recvs[id] {
					found = true
				}
				return true
			}
			if fn, ok := g.pass.TypesInfo.Uses[fun].(*types.Func); ok {
				if decl, ok := g.decls[fn]; ok && g.joined(decl.Body, depth+1) {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := g.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
				if fn.Name() == "Done" {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
						isPkgNamed(sig.Recv().Type(), "sync", "WaitGroup") {
						if id := syncIdentity(g.pass, fun.X); id != "" && g.waits[id] {
							found = true
						}
						return true
					}
				}
				if orig := fn.Origin(); orig != nil {
					fn = orig
				}
				if decl, ok := g.decls[fn]; ok && g.joined(decl.Body, depth+1) {
					found = true
				}
			}
		}
		return true
	})
	return found
}
