package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ctxflow enforces context discipline in the long-lived concurrent
// layers — internal/serve, internal/harness and cmd — where the
// ROADMAP's scale-out direction (distributed workers, job persistence)
// will multiply goroutines and the cost of a leak:
//
//  1. context.Background() and context.TODO() create detached
//     contexts that no drain deadline can reach. They are legal only
//     at audited roots (process entry, signal handling, a deliberate
//     post-cancel grace window), marked `//costsense:ctx-ok <why>`.
//  2. Every `go` statement must have a structurally-identifiable
//     termination path: the goroutine references a context (it can
//     see cancellation), ranges over a channel (it ends when the
//     producer closes), or receives from one (it ends when the peer
//     signals). A goroutine that only computes or sends is assumed
//     immortal and flagged.
//  3. A function whose own body parks the goroutine (channel ops,
//     select without default, Sleep/Wait) or spawns one must be able
//     to observe cancellation: a context.Context or *http.Request
//     parameter, or a receiver carrying a context field. Otherwise
//     shutdown cannot reach it.
//
// The analyzer is restricted to the three subtrees via Match: the
// simulator and protocol code never spawn.
var Ctxflow = &Analyzer{
	Name:     "ctxflow",
	Doc:      "enforces context propagation and goroutine termination paths in serve, harness and cmd",
	Suppress: "ctx-ok",
	Scoped:   true,
	Match:    ctxflowMatch,
	Run:      runCtxflow,
}

// ctxflowMatch limits the analyzer to the long-lived concurrent
// layers.
func ctxflowMatch(modulePath, importPath string) bool {
	for _, sub := range [...]string{"/internal/serve", "/internal/harness", "/cmd/"} {
		if importPath == modulePath+strings.TrimSuffix(sub, "/") ||
			strings.HasPrefix(importPath, modulePath+sub) {
			return true
		}
	}
	return false
}

func runCtxflow(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxflowFunc(pass, fd)
		}
	}
}

func checkCtxflowFunc(pass *Pass, fd *ast.FuncDecl) {
	// Rule 3: a directly-parking or spawning function must be able to
	// observe cancellation.
	if sum := pass.Sum.Of(funcObj(pass, fd)); sum != nil {
		if sum.Direct&(EffBlocksChan|EffSpawns) != 0 && sum.Direct&EffTakesCtx == 0 {
			what := "blocks on channels or timers"
			if sum.Direct&EffSpawns != 0 {
				what = "spawns a goroutine"
				if sum.Direct&EffBlocksChan != 0 {
					what = "blocks and spawns"
				}
			}
			pass.Report(fd.Name.Pos(),
				"%s %s but cannot observe cancellation; accept a context.Context (or *http.Request), or audit the root with %sctx-ok <why>",
				fd.Name.Name, what, Directive)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Rule 1: detached contexts.
			if fn := pass.CalleeFunc(n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
				if fn.Name() == "Background" || fn.Name() == "TODO" {
					pass.Report(n.Pos(),
						"context.%s starts a detached context no drain deadline can reach; thread the caller's ctx, or audit the root with %sctx-ok <why>",
						fn.Name(), Directive)
				}
			}
		case *ast.GoStmt:
			checkGoroutine(pass, n)
		}
		return true
	})
}

// checkGoroutine applies rule 2 to one spawn site.
func checkGoroutine(pass *Pass, g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if goroutineHasTermination(pass, fun) {
			return
		}
	default:
		// Named (or method) spawn: the callee observing a context is the
		// termination tie; check the summary and the argument list.
		if fn := pass.CalleeFunc(g.Call); fn != nil {
			if sum := pass.Sum.Of(fn); sum != nil && sum.Direct&EffTakesCtx != 0 {
				return
			}
		}
		for _, arg := range g.Call.Args {
			if t := pass.TypeOf(arg); t != nil && isCtxOrRequest(t) {
				return
			}
		}
	}
	pass.Report(g.Pos(),
		"goroutine has no structurally-identifiable termination path (no context reference, channel range, or receive); tie it to ctx cancellation or a queue close, or audit with %sctx-ok <why>",
		Directive)
}

// goroutineHasTermination scans a goroutine literal for a termination
// tie: any expression of context type (ctx.Done, ctx.Err, forwarding
// ctx), a range over a channel, or a channel receive.
func goroutineHasTermination(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if t := pass.TypeOf(n); t != nil && isContextType(t) {
				found = true
			}
		case *ast.SelectorExpr:
			if t := pass.TypeOf(n); t != nil && isContextType(t) {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		}
		return true
	})
	return found
}

// funcObj resolves a declaration to its function object.
func funcObj(pass *Pass, fd *ast.FuncDecl) *types.Func {
	fn, _ := pass.ObjectOf(fd.Name).(*types.Func)
	return fn
}
