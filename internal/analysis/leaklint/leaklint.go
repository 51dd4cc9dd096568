// Package leaklint implements the goroutine-lifecycle analyzer of the
// simcheck suite (conccheck member 1 of 3).
//
// The serving stack leaks goroutines in exactly the ways every Go server
// does: a worker launched without a shutdown path outlives its request,
// a captured local written from two goroutines races. The
// ROADMAP-item-3 concurrent event core will multiply the goroutine
// count, so the discipline is enforced at vet time: every `go`
// statement in the concurrent layers must carry a provable shutdown
// path —
//
//   - its body receives from a ctx.Done()-style channel (directly or in
//     a select), or from a done/stop/quit-named channel,
//   - or it is paired with a sync.WaitGroup: the body calls wg.Done()
//     (with the Add in the enclosing scope) or wg.Wait() (a closer
//     goroutine that ends when the bounded group drains),
//   - or it ranges over a channel (it ends when the producer closes),
//   - or it carries //simcheck:allow(leaklint) <justification>.
//
// One capture hazard is flagged alongside: assigning to a captured local
// without a lock held in the body (a data race unless every other
// accessor is also synchronized — which the analyzer cannot see, so the
// write must be guarded or justified). Loop-variable capture is not
// checked: go.mod declares Go 1.22, so every iteration has its own
// variable and a capture cannot alias another iteration's value.
//
// leaklint also owns allow-directive hygiene for the whole suite: it
// runs over every package (the goroutine checks apply only inside
// -pkgs) and reports any //simcheck:allow naming an analyzer that is
// not registered, so a typo cannot silently suppress nothing.
package leaklint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/simdir"
)

// Name is the analyzer name used in diagnostics and allow directives.
const Name = "leaklint"

func init() { simdir.Register(Name) }

// DefaultPackages matches the concurrent layers grown by the serving
// PRs: everything that launches goroutines outside the deterministic
// core (which detlint forbids from launching any at all).
const DefaultPackages = `(^|/)internal/(server|load|experiments|telemetry|model)($|/)`

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "require a provable shutdown path for every goroutine in the concurrent layers; flag unsynchronized captured writes",
	Run:  run,
}

var pkgPattern string

func init() {
	Analyzer.Flags.StringVar(&pkgPattern, "pkgs", DefaultPackages,
		"regexp of package import paths whose goroutines are lifecycle-checked")
}

// doneNameRE matches channel identifiers conventionally used as shutdown
// signals.
var doneNameRE = regexp.MustCompile(`(?i)^(done|stop|stopped|quit|exit|closed|closing|shutdown)$`)

func run(pass *analysis.Pass) (interface{}, error) {
	re, err := regexp.Compile(pkgPattern)
	if err != nil {
		return nil, err
	}
	dir := simdir.Parse(pass)
	// Directive hygiene runs everywhere, scoped checks only inside -pkgs.
	dir.ReportUnknown(pass)
	if !re.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // tests may leak for brevity; -race and t.Cleanup cover them
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, dir, fn.Body)
		}
	}
	return nil, nil
}

// checkFunc walks one function body looking for go statements,
// including goroutines launched from inside other goroutines.
func checkFunc(pass *analysis.Pass, dir *simdir.Directives, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			checkGo(pass, dir, g)
		}
		return true
	})
}

// checkGo applies the leak checks to one go statement.
func checkGo(pass *analysis.Pass, dir *simdir.Directives, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		// The body is elsewhere; nothing about its shutdown is provable at
		// this launch site.
		dir.Report(pass, Name, g.Pos(),
			"goroutine body is a named function, so no shutdown path is provable at the launch site; wrap it in a func literal that selects on ctx.Done() or pairs with a WaitGroup, or justify with //simcheck:allow(leaklint)")
		return
	}
	if !hasShutdownPath(pass, lit.Body) {
		dir.Report(pass, Name, g.Pos(),
			"goroutine has no provable shutdown path: select on ctx.Done() (or a done/stop channel), pair it with sync.WaitGroup Add/Done, range over a closable channel, or justify with //simcheck:allow(leaklint)")
	}
	checkCapturedWrites(pass, dir, lit)
}

// hasShutdownPath reports whether the goroutine body contains a
// construct that provably lets it exit.
func hasShutdownPath(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && isShutdownChan(pass, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(pass.TypesInfo.TypeOf(n.X)) {
				found = true
			}
		case *ast.CallExpr:
			if isWaitGroupCall(pass, n, "Done") || isWaitGroupCall(pass, n, "Wait") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isShutdownChan reports whether a receive operand is a recognizable
// shutdown signal: the result of a Done()-style method (context.Context,
// custom lifecycles) or a channel named like one.
func isShutdownChan(pass *analysis.Pass, x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return isChanType(pass.TypesInfo.TypeOf(x))
		}
	case *ast.Ident:
		return doneNameRE.MatchString(x.Name) && isChanType(pass.TypesInfo.TypeOf(x))
	case *ast.SelectorExpr:
		return doneNameRE.MatchString(x.Sel.Name) && isChanType(pass.TypesInfo.TypeOf(x))
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isWaitGroupCall reports whether call is (*sync.WaitGroup).<method>.
func isWaitGroupCall(pass *analysis.Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return isSyncType(recv.Type(), "WaitGroup")
}

// isSyncType reports whether t is sync.<name> or *sync.<name>.
func isSyncType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// checkCapturedWrites flags plain assignments to variables declared
// outside the goroutine body when the body takes no lock: with nothing
// serializing them, two such goroutines (or the goroutine and its
// spawner) race.
func checkCapturedWrites(pass *analysis.Pass, dir *simdir.Directives, lit *ast.FuncLit) {
	if bodyTakesLock(pass, lit.Body) {
		return // coarse but honest: a lock in the body marks the writes as guarded
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literal: its writes are its own problem
		}
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok.String() == ":=" {
				return true
			}
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		default:
			return true
		}
		for _, l := range targets {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || obj.Parent() == nil || obj.Pkg() == nil {
				continue
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				continue
			}
			if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
				continue // declared inside the goroutine
			}
			if obj.Parent() == obj.Pkg().Scope() {
				continue // package-level state is detlint/design territory
			}
			dir.Report(pass, Name, id.Pos(),
				"goroutine writes captured local %q without synchronization; guard it with a mutex, send it over a channel, or justify with //simcheck:allow(leaklint)", obj.Name())
		}
		return true
	})
}

// bodyTakesLock reports whether the goroutine body calls Lock/RLock on a
// sync.Mutex/RWMutex anywhere.
func bodyTakesLock(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv != nil && (isSyncType(recv.Type(), "Mutex") || isSyncType(recv.Type(), "RWMutex")) {
			found = true
		}
		return !found
	})
	return found
}
