package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotalloc checks functions annotated //ufc:hotpath — the ADM-G Iterate and
// per-agent step loops (PR 1) and the wire-codec/batched-Send path (PR 2),
// all of which are benchmarked at 0 allocs/op in steady state — for
// constructs that allocate on every execution:
//
//   - fmt.Sprintf / fmt.Sprint / fmt.Sprintln and runtime string
//     concatenation;
//   - append whose result lands anywhere but the appended slice itself
//     (x = append(x, ...) reuses caller-owned capacity; anything else grows
//     a fresh backing array). `return append(x, ...)` is also clean: it is
//     the append-style API contract, handing the buffer back to the caller;
//   - closures that capture variables and escape (passed to a call, a
//     goroutine, a defer, a field, a channel or a return) — a captured,
//     escaping closure heap-allocates its context;
//   - implicit interface boxing of non-pointer-shaped values at call sites
//     (fmt/errors error-path formatting is exempt);
//   - map and slice composite literals.
//
// Allocation-on-error is acceptable: fmt.Errorf and the errors package are
// never flagged, since hot paths only pay for them when the iteration
// already failed.
//
// Hotalloc also exports an allocatesFact for every unannotated function
// that contains one of the constructs above, and flags hotpath calls to
// any callee — same package or imported — carrying the fact: a hot loop
// cannot stay at 0 allocs/op by delegating the allocation to a cold
// helper. Such a call is fixed by annotating and cleaning the callee, or
// justified at the call site with //ufc:alloc <why> (e.g. a genuinely
// cold error/teardown branch).
var Hotalloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "flag allocation-causing constructs inside //ufc:hotpath functions",
	FactTypes: []Fact{(*allocatesFact)(nil)},
	Run:       runHotalloc,
}

// allocatesFact marks a function whose body directly contains an
// allocation-per-call construct. It is exported for unannotated functions
// only: hotpath functions are checked (and kept clean) at their own
// definition site.
type allocatesFact struct {
	What string `json:"what"` // first construct found, for the diagnostic
}

func (*allocatesFact) AFact() {}

func runHotalloc(pass *Pass) error {
	// Fact pass first, so same-package calls resolve like imported ones.
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || FuncHasDirective(fn, "hotpath") {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			found := pass.capture(func() { pass.checkHotFunc(fn, false) })
			if len(found) > 0 {
				what := strings.TrimPrefix(found[0].Message, "hotpath: ")
				if cut := strings.IndexByte(what, ';'); cut > 0 {
					what = what[:cut]
				}
				pass.ExportObjectFact(obj, &allocatesFact{What: what})
			}
		}
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !FuncHasDirective(fn, "hotpath") {
				continue
			}
			pass.checkHotFunc(fn, true)
		}
	}
	return nil
}

func (p *Pass) checkHotFunc(fn *ast.FuncDecl, followCalls bool) {
	WalkStack(fn.Body, func(stack []ast.Node, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			p.checkSprintf(n)
			p.checkAppend(n, stack)
			p.checkBoxing(n)
			if followCalls {
				p.checkAllocCallee(n)
			}
		case *ast.BinaryExpr:
			p.checkStringConcat(n)
		case *ast.FuncLit:
			p.checkClosure(n, stack, fn)
			return false // don't descend: the closure body runs elsewhere
		case *ast.CompositeLit:
			p.checkMapSliceLit(n)
		}
		return true
	})
}

// checkAllocCallee flags calls from a hotpath function to a callee that
// the fact stream says allocates — the cross-package form of the same
// invariant, resolved through allocatesFacts exported when the callee's
// package was analyzed.
func (p *Pass) checkAllocCallee(call *ast.CallExpr) {
	f := p.funcOf(call)
	if f == nil {
		return
	}
	var fact allocatesFact
	if !p.ImportObjectFact(f, &fact) {
		return
	}
	if p.Suppressed(call, "alloc") {
		return
	}
	p.Reportf(call.Pos(), "hotpath: call to %s, which allocates (%s); annotate and clean the callee with //ufc:hotpath, or justify the call with //ufc:alloc", f.Name(), fact.What)
}

func (p *Pass) checkSprintf(call *ast.CallExpr) {
	f := p.funcOf(call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "fmt" {
		return
	}
	switch f.Name() {
	case "Sprintf", "Sprint", "Sprintln", "Appendf", "Append", "Appendln":
		p.Reportf(call.Pos(), "hotpath: fmt.%s allocates a string on every call; precompute or use a scratch buffer", f.Name())
	}
}

func (p *Pass) checkStringConcat(be *ast.BinaryExpr) {
	if be.Op.String() != "+" {
		return
	}
	tv, ok := p.TypesInfo.Types[be]
	if !ok || tv.Value != nil { // constant concatenation folds at compile time
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		p.Reportf(be.Pos(), "hotpath: string concatenation allocates; precompute the string or use a scratch []byte")
	}
}

// checkAppend flags append calls that are not the self-append idiom
// `x = append(x, ...)`: appending into a different destination always
// allocates a new backing array once the source capacity is exceeded, and
// the hot paths own pre-sized scratch exactly to avoid that.
//
// `return append(x, ...)` is the other clean form — the append-style API
// contract (binary.AppendUvarint, strconv.AppendInt, the wire codec's
// appendFrame helpers): the result hands the buffer back to the caller,
// who feeds it into their own slice. Without this carve-out every
// append-API helper would export an allocates fact and poison its
// (allocation-free) hotpath call sites across packages.
func (p *Pass) checkAppend(call *ast.CallExpr, stack []ast.Node) {
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" || p.TypesInfo.Uses[fn] != types.Universe.Lookup("append") {
		return
	}
	if len(stack) > 0 {
		switch parent := stack[len(stack)-1].(type) {
		case *ast.AssignStmt:
			if len(parent.Lhs) == 1 && len(parent.Rhs) == 1 &&
				ast.Unparen(parent.Rhs[0]) == call && len(call.Args) > 0 && p.exprEqual(parent.Lhs[0], call.Args[0]) {
				return
			}
		case *ast.ReturnStmt:
			return
		}
	}
	p.Reportf(call.Pos(), "hotpath: append result does not feed back into the appended slice; use the self-append idiom on a reused scratch buffer (x = append(x, ...))")
}

// checkClosure flags function literals that both capture variables and
// escape. A capture-free literal is a static function value, and a captured
// literal that is only assigned to a local and called directly is inlined
// or stack-allocated (a local probe closure such as eval := func(t) …;
// eval(t)) — neither allocates.
func (p *Pass) checkClosure(lit *ast.FuncLit, stack []ast.Node, enclosing *ast.FuncDecl) {
	if !p.closureCaptures(lit) {
		return
	}
	if local, obj := p.closureBoundLocal(stack); local {
		if obj != nil && p.localOnlyCalled(obj, enclosing, lit) {
			return
		}
	}
	p.Reportf(lit.Pos(), "hotpath: closure captures variables and escapes, heap-allocating its context on every call; hoist the state into a workspace/method (see Engine.lambdaItem)")
}

// closureCaptures reports whether the literal references any variable
// declared outside it (excluding package-level and field references).
func (p *Pass) closureCaptures(lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || !v.Pos().IsValid() {
			return true
		}
		if v.Parent() == p.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
			return false
		}
		return true
	})
	return captured
}

// closureBoundLocal reports whether the literal's immediate context is a
// simple binding `name := func(...){...}`, returning the bound object.
func (p *Pass) closureBoundLocal(stack []ast.Node) (bool, types.Object) {
	if len(stack) == 0 {
		return false, nil
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false, nil
	}
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return false, nil
	}
	return true, p.TypesInfo.ObjectOf(id)
}

// localOnlyCalled reports whether every use of obj inside fn (outside lit
// itself) is a direct call obj(...): the closure never escapes.
func (p *Pass) localOnlyCalled(obj types.Object, fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	escapes := false
	WalkStack(fn.Body, func(stack []ast.Node, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || p.TypesInfo.Uses[id] != obj {
			return true
		}
		if len(stack) > 0 {
			if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == id {
				return true
			}
		}
		escapes = true
		return false
	})
	return !escapes
}

// boxingExemptPkgs hold error-path formatting helpers: boxing their
// arguments only costs when the hot loop already failed.
var boxingExemptPkgs = map[string]bool{"fmt": true, "errors": true}

// checkBoxing flags arguments implicitly converted to an interface type
// when the concrete value is not pointer-shaped (pointers, channels, maps
// and funcs fit in the interface word; everything else is copied to the
// heap).
func (p *Pass) checkBoxing(call *ast.CallExpr) {
	f := p.funcOf(call)
	if f != nil && f.Pkg() != nil && boxingExemptPkgs[f.Pkg().Path()] {
		return
	}
	ft := p.TypesInfo.TypeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no per-element boxing
			}
			param = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, ok := param.Underlying().(*types.Interface); !ok {
			continue
		}
		at := p.TypesInfo.TypeOf(arg)
		if at == nil || isPointerShaped(at) {
			continue
		}
		if _, ok := at.Underlying().(*types.Interface); ok {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		p.Reportf(arg.Pos(), "hotpath: implicit conversion of %s to interface %s boxes the value on the heap", at, param)
	}
}

// isPointerShaped reports whether values of t fit in an interface data word
// without allocation.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func (p *Pass) checkMapSliceLit(cl *ast.CompositeLit) {
	t := p.TypesInfo.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		p.Reportf(cl.Pos(), "hotpath: map literal allocates; build the map once outside the hot loop")
	case *types.Slice:
		p.Reportf(cl.Pos(), "hotpath: slice literal allocates a fresh backing array; reuse a workspace buffer")
	}
}
