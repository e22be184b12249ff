package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Resclose enforces resource lifecycle in the serving/cluster/load layer:
// every http.Response, net.Listener, time.Ticker/Timer, and
// telemetry.JSONLFile created in a function must reach its Close/Stop
// somewhere in that function, or visibly escape to an owner (returned,
// passed as an argument, stored in a field/slice/map, or sent on a
// channel). It also flags time.After inside a loop, which allocates a
// timer per iteration that cannot be collected until it fires — the exact
// leak shape of a poll loop under a long poll interval.
var Resclose = &Analyzer{
	Name: "resclose",
	Doc: "http.Response bodies, net.Listeners, tickers/timers, and telemetry JSONL writers must reach " +
		"Close/Stop or escape to an owner; time.After in a loop leaks a timer per iteration",
	Run: runResclose,
}

var rescloseScope = []string{"serve", "cluster", "load", "telemetry", "e2e", "micserved", "micload", "resclose"}

// rescloseKind describes one tracked resource type.
type rescloseKind struct {
	desc string // for diagnostics
	verb string // what must be called
}

func runResclose(pass *Pass) error {
	if !inScope(pass.PkgPath, rescloseScope) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkResources(pass, fd.Body)
		}
		checkTimeAfterLoops(pass, f)
	}
	return nil
}

// resKindOf classifies t as a tracked resource. telemetry.JSONLFile is
// matched by package name so fixtures can model it.
func resKindOf(t types.Type) *rescloseKind {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	switch {
	case obj.Pkg().Path() == "net/http" && obj.Name() == "Response":
		return &rescloseKind{desc: "http.Response", verb: "Body.Close"}
	case obj.Pkg().Path() == "time" && obj.Name() == "Ticker":
		return &rescloseKind{desc: "time.Ticker", verb: "Stop"}
	case obj.Pkg().Path() == "time" && obj.Name() == "Timer":
		return &rescloseKind{desc: "time.Timer", verb: "Stop"}
	case obj.Pkg().Path() == "net" && obj.Name() == "Listener":
		return &rescloseKind{desc: "net.Listener", verb: "Close"}
	case obj.Pkg().Name() == "telemetry" && obj.Name() == "JSONLFile":
		return &rescloseKind{desc: "telemetry.JSONLFile", verb: "Close"}
	}
	return nil
}

// resource tracks one function-local variable bound to a fresh resource.
type resource struct {
	kind            *rescloseKind
	pos             token.Pos
	closed, escaped bool
}

// checkResources runs the two-pass scan over one function body (function
// literals included: object identity keeps variables distinct, and a
// resource created in an outer scope may legitimately be closed inside a
// spawned literal).
func checkResources(pass *Pass, body *ast.BlockStmt) {
	tracked := map[*types.Var]*resource{}

	// Pass 1: creations — `v, err := call()` / `v := call()` where a
	// result type is a tracked resource.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		track := func(id *ast.Ident) {
			if id.Name == "_" {
				return
			}
			v, ok := pass.Info.Defs[id].(*types.Var)
			if !ok {
				return
			}
			if kind := resKindOf(v.Type()); kind != nil {
				tracked[v] = &resource{kind: kind, pos: id.Pos()}
			}
		}
		if len(as.Rhs) == 1 {
			if _, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); !isCall {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					track(id)
				}
			}
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			if _, isCall := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); !isCall {
				continue
			}
			if id, ok := lhs.(*ast.Ident); ok {
				track(id)
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	lookup := func(e ast.Expr) *resource {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok {
			return nil
		}
		return tracked[v]
	}
	// operand strips one layer of & so `&resp` escapes like `resp`.
	operand := func(e ast.Expr) *resource {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		return lookup(e)
	}

	// Pass 2: closes and escapes.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// v.Close() / v.Stop() / v.Body.Close() — walk selector chains
			// down to the base identifier.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Close", "Stop", "Flush":
					base := sel.X
					for {
						if inner, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
							base = inner.X
							continue
						}
						break
					}
					if r := lookup(base); r != nil {
						r.closed = true
					}
				}
			}
			for _, arg := range n.Args {
				if r := operand(arg); r != nil {
					r.escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if r := operand(res); r != nil {
					r.escaped = true
				}
			}
		case *ast.AssignStmt:
			// A tracked variable on any RHS escapes: assignment to a
			// field/global, or aliasing under a second name.
			for _, rhs := range n.Rhs {
				if r := operand(rhs); r != nil {
					r.escaped = true
				}
			}
		case *ast.SendStmt:
			if r := operand(n.Value); r != nil {
				r.escaped = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if r := operand(el); r != nil {
					r.escaped = true
				}
			}
		}
		return true
	})

	for _, r := range tracked {
		if !r.closed && !r.escaped {
			pass.Reportf(r.pos, "%s created here never reaches %s in this function and does not escape to an owner: the resource leaks on at least one path; close it (usually via defer) or hand it off explicitly",
				r.kind.desc, r.kind.verb)
		}
	}
}

// checkTimeAfterLoops flags time.After calls lexically inside a for/range
// loop. Each call allocates a timer that is not collected until it fires,
// so a tight poll loop with a long interval pins memory; NewTicker (or
// NewTimer with Reset) plus Stop is the bounded equivalent.
func checkTimeAfterLoops(pass *Pass, f *ast.File) {
	reported := map[token.Pos]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); isPkgFunc(fn, "time", "After") && !reported[call.Pos()] {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(), "time.After inside a loop allocates a timer every iteration that lives until it fires; hoist a time.NewTicker (or NewTimer with Reset) out of the loop and Stop it")
			}
			return true
		})
		return true
	})
}
