// ctxpropagate: the cancellation discipline. The serving stack
// (internal/sim, internal/stream, internal/cluster, cmd/brightd)
// threads context.Context from the HTTP request down to the iterative
// solvers, which check it at iteration boundaries; a call to a
// non-Context API variant — or a fresh context.Background() — anywhere
// on that path silently detaches the solve from request cancellation,
// and a client timeout stops buying the server anything. In the
// cluster tier the same discipline keeps proxied backend calls tied to
// the client request, so a hung shard cannot pin coordinator
// goroutines past the caller's deadline. This rule flags both within
// the serving packages.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagate flags non-Context API calls and fresh root contexts in
// serving-path packages.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "require *Context API variants and inherited contexts on serving paths",
	Run:  runCtxPropagate,
}

// servingPkg reports whether an import path is part of the serving
// stack. Matching by suffix keeps the rule applicable to fixture
// modules.
func servingPkg(path string) bool {
	return strings.HasSuffix(path, "internal/sim") ||
		strings.HasSuffix(path, "internal/stream") ||
		strings.HasSuffix(path, "internal/cluster") ||
		strings.HasSuffix(path, "cmd/brightd")
}

// nonContextSiblings maps (defining package's last path segment,
// function or method name) to the *Context variant that must be called
// instead on serving paths.
var nonContextSiblings = map[[2]string]string{
	{"cosim", "Run"}:             "cosim.RunContext",
	{"thermal", "Solve"}:         "thermal.SolveContext",
	{"thermal", "SolveSchedule"}: "thermal.SolveScheduleContext",
	{"pdn", "SolveTransient"}:    "pdn.SolveTransientContext",
	{"flowcell", "Polarize"}:     "PolarizeContext",
	{"core", "Evaluate"}:         "EvaluateContext",
}

// calleeFunc resolves the *types.Func a call invokes, when it is a
// direct (possibly selector-qualified) call to a named function or
// method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func runCtxPropagate(p *Package) []Diagnostic {
	if !servingPkg(p.ImportPath) || p.Info == nil {
		return nil
	}
	var diags []Diagnostic
	report := func(n ast.Node, msg string) {
		diags = append(diags, Diagnostic{Pos: p.Fset.Position(n.Pos()), Analyzer: "ctxpropagate", Message: msg})
	}
	for _, f := range p.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := calleeFunc(p.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			seg := pkgSegment(fn.Pkg().Path())
			switch {
			case fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO"):
				// signal.NotifyContext(context.Background(), ...) is the
				// documented way to build the process root context; the
				// Background() argument there is allowed.
				if parentIsSignalNotify(p.Info, stack) {
					return
				}
				report(call, "context."+fn.Name()+"() on a serving path detaches the solve from request cancellation: derive the context from the caller instead")
			default:
				if repl, ok := nonContextSiblings[[2]string{seg, fn.Name()}]; ok {
					report(call, seg+"."+fn.Name()+" has no cancellation hook on a serving path: call "+repl+" so cancellation reaches iteration boundaries")
				}
			}
		})
	}
	return diags
}

// parentIsSignalNotify reports whether the innermost enclosing call is
// os/signal.NotifyContext.
func parentIsSignalNotify(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(info, call)
		return fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "os/signal" && fn.Name() == "NotifyContext"
	}
	return false
}
