package analysis

import (
	"go/ast"
	"go/types"
)

// Goroleak flags fire-and-forget goroutines in the serving/cluster/load
// layer: every `go` statement must be tied to an owner that can observe
// or stop it — a context.Context (in the arguments or captured by the
// body), a sync.WaitGroup, or a supervising channel the goroutine closes
// or sends on. A named callee of the same package is judged by its body,
// so `go q.worker(w)` is owned when worker registers with the queue's
// WaitGroup even though the go statement itself shows none of that; a
// callee in another package (`go srv.Serve(ln)`) has no body here and is
// flagged unless the statement itself shows an owner.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc: "every go statement in serve/cluster/load must be tied to a context.Context, sync.WaitGroup, or " +
		"supervising channel; fire-and-forget goroutines outlive drains and leak",
	Run: runGoroleak,
}

var goroleakScope = []string{"serve", "cluster", "load", "e2e", "micserved", "micload", "goroleak"}

func runGoroleak(pass *Pass) error {
	if !inScope(pass.PkgPath, goroleakScope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goOwned(pass, g) {
				pass.Reportf(g.Pos(), "goroutine is not tied to a context, WaitGroup, or supervising channel: it cannot be observed or stopped, and leaks across drain/shutdown; pass a context, register with a WaitGroup, or signal a done channel")
			}
			return true
		})
	}
	return nil
}

// goOwned reports whether the spawned goroutine has an owner: a context
// reaches it, or its body — the literal's, or the same-package callee's —
// participates in a supervision protocol.
func goOwned(pass *Pass, g *ast.GoStmt) bool {
	if usesContext(pass.Info, g.Call) {
		return true
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return litSupervised(pass.Info, lit.Body)
	}
	if decl := declOf(pass, calleeFunc(pass.Info, g.Call)); decl != nil {
		return litSupervised(pass.Info, decl.Body)
	}
	return false
}

// declOf returns the declaration of fn when the package under analysis
// declares it, nil otherwise.
func declOf(pass *Pass, fn *types.Func) *ast.FuncDecl {
	if fn == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	fn = fn.Origin()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && pass.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// litSupervised reports whether a goroutine body signals an owner: it
// references a sync.WaitGroup (Add/Done bookkeeping), closes or sends on
// a channel, or watches a context.
func litSupervised(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin && id.Name == "close" {
					found = true
				}
			}
		}
		if expr, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[expr]; ok && isWaitGroupType(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found || usesContext(info, body)
}

func isWaitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
