package lint

// interproc.go is the compositional interprocedural layer underneath the
// ownership analyzers (ownercheck, alloccheck). Where the other tcqlint
// analyzers each walk one function body, this layer builds a per-function
// Summary — which parameters a function releases or stores beyond its
// own frame; whether it returns a freshly owned value; every potential
// heap-allocation site in its body and in the repo functions it
// transitively calls — and propagates summaries bottom-up through the
// call graph to a fixed point (the RacerD-style compositional recipe:
// analyze each function once, reuse the summary at every call site).
//
// Cross-package propagation rides on `go list -deps` order: lint.Run
// analyzes packages dependencies-first, so by the time a package is
// summarized, every repository package it imports already has final
// summaries in the shared table. Within a package, mutual recursion is
// resolved by iterating to a fixed point.
//
// Approximations (deliberate, documented here once):
//   - Dynamic calls (interface methods, func values) are not followed.
//     The engine's hot callbacks are themselves bodies of analyzed
//     functions, so their sites are still seen where they are written.
//   - Escape tracking is one level deep: a parameter copied into a local
//     and then stored is not tracked.
//   - Summaries are may-analyses: a release on one branch marks the
//     parameter as released.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directives recognized on function declarations.
const (
	// HotpathDirective marks a function as a zero-allocation hot-path
	// root: neither it nor anything it transitively calls inside the
	// repository may contain a heap-allocation site (alloccheck).
	HotpathDirective = "//tcq:hotpath"
	// ColdpathDirective marks a function as an audited amortization
	// point: it may allocate even when reached from a hot path, because
	// review established its cost amortizes to ~0 per tuple (ring and
	// scratch growth, sampled telemetry).
	ColdpathDirective = "//tcq:coldpath"
)

// FuncRef names one function or method uniquely across the whole run:
// package import path, receiver type name (empty for plain functions),
// and function name. It is stable across the source-typechecked and
// export-data views of the same package, which is what lets summaries
// built in one package be looked up from another.
type FuncRef struct {
	Pkg  string
	Recv string
	Name string
}

func (r FuncRef) String() string {
	if r.Recv != "" {
		return r.Pkg + ".(" + r.Recv + ")." + r.Name
	}
	return r.Pkg + "." + r.Name
}

// Short renders the ref with the package path trimmed to its base, for
// diagnostics.
func (r FuncRef) Short() string {
	base := r.Pkg
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if r.Recv != "" {
		return base + "." + r.Recv + "." + r.Name
	}
	return base + "." + r.Name
}

// RefOf derives the FuncRef for a function object, unwrapping generic
// instantiations to their origin declaration.
func RefOf(f *types.Func) (FuncRef, bool) {
	if f == nil {
		return FuncRef{}, false
	}
	if o := f.Origin(); o != nil {
		f = o
	}
	if f.Pkg() == nil {
		return FuncRef{}, false
	}
	ref := FuncRef{Pkg: f.Pkg().Path(), Name: f.Name()}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		n := DerefNamed(sig.Recv().Type())
		if n == nil {
			return FuncRef{}, false
		}
		ref.Recv = n.Obj().Name()
	}
	return ref, true
}

// DerefNamed unwraps pointers and aliases down to a *types.Named, or nil.
func DerefNamed(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// Alloc is one potential heap-allocation site.
type Alloc struct {
	Pos  token.Position
	What string  // "make", "map write", "interface boxing", ...
	In   FuncRef // the function whose body contains the site
}

// Summary is the interprocedural abstract of one function. Ownership
// slots number the receiver (slot 0, for methods) followed by the
// parameters; for plain functions slot i is parameter i. Bit i of the
// slot masks refers to slot i; slots past 63 are not tracked.
type Summary struct {
	Ref FuncRef

	// Releases marks slots whose value the function may release or
	// recycle (Pool.Put), directly or
	// through any repo function it calls.
	Releases uint64
	// Stores marks slots whose value may escape the callee's frame: into
	// a field, global, container, channel, closure, or return value —
	// i.e. the callee may take ownership.
	Stores uint64
	// ReturnsOwned reports that the function may return a freshly owned
	// value (a Tuple obtained from a pool producer).
	ReturnsOwned bool
	// Hotpath and Coldpath mirror the //tcq:hotpath and //tcq:coldpath
	// declaration directives.
	Hotpath  bool
	Coldpath bool

	// Allocs are the potential heap-allocation sites in this function
	// and, transitively, in every repo function it statically calls
	// (coldpath callees excluded).
	Allocs []Alloc

	// Calls lists the repo-internal statically resolved callees.
	Calls []FuncRef

	allocSet map[token.Position]bool
}

func (s *Summary) addAlloc(a Alloc) {
	if s.allocSet == nil {
		s.allocSet = make(map[token.Position]bool)
	}
	if s.allocSet[a.Pos] {
		return
	}
	s.allocSet[a.Pos] = true
	s.Allocs = append(s.Allocs, a)
}

// Model parameterizes summary construction with the repository's
// ownership vocabulary, so the layer itself stays generic (fixtures and
// the loader tests plug in their own).
type Model struct {
	// KillSlot classifies a call as a direct release of one of its
	// ownership slots (receiver first), returning the slot index and a
	// verb for diagnostics.
	KillSlot func(info *types.Info, call *ast.CallExpr) (slot int, verb string, ok bool)
	// Produces reports whether a direct call returns a freshly owned
	// value (e.g. Pool.Get).
	Produces func(info *types.Info, call *ast.CallExpr) bool
	// Internal reports whether a package path belongs to the analyzed
	// repository (its functions have summaries; its calls are followed).
	// The package currently being summarized is always internal.
	Internal func(pkgPath string) bool
	// NoAlloc reports whether a call to an external function is known
	// not to allocate (math/bits, sync, atomic, ...).
	NoAlloc func(f *types.Func) bool
}

func (m Model) internal(path string) bool { return m.Internal != nil && m.Internal(path) }
func (m Model) noAlloc(f *types.Func) bool {
	return m.NoAlloc != nil && m.NoAlloc(f)
}

// Summaries accumulates per-function summaries across the packages of
// one analyzer run. AddPackage is idempotent per package; analyzers
// sharing one Summaries instance pay for summary construction once.
type Summaries struct {
	Model Model
	funcs map[FuncRef]*Summary
	seen  map[*types.Package]bool
}

// NewSummaries returns an empty summary table over the given model.
func NewSummaries(m Model) *Summaries {
	return &Summaries{
		Model: m,
		funcs: make(map[FuncRef]*Summary),
		seen:  make(map[*types.Package]bool),
	}
}

// Lookup returns the summary for ref, or nil if ref's package has not
// been summarized (external packages, or fixture imports).
func (s *Summaries) Lookup(ref FuncRef) *Summary { return s.funcs[ref] }

// Of resolves a function object to its summary, or nil.
func (s *Summaries) Of(f *types.Func) *Summary {
	ref, ok := RefOf(f)
	if !ok {
		return nil
	}
	return s.funcs[ref]
}

// HasDirective reports whether a declaration's doc comment carries the
// given //tcq: directive (exact token or directive followed by a note).
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// forward records "this function passes its own slot ownSlot as callee
// slot calleeSlot" — the edge along which Releases/Stores bits
// propagate bottom-up.
type forward struct {
	callee              FuncRef
	calleeSlot, ownSlot int
}

// pendingClosure is a function literal whose allocation status depends
// on whether its (repo-internal) callee stores the callback: resolved
// after the bit fixed point.
type pendingClosure struct {
	owner  FuncRef
	pos    token.Position
	callee FuncRef
	slot   int
}

// declState is the per-declaration scratch used during one AddPackage.
type declState struct {
	ref      FuncRef
	sum      *Summary
	decl     *ast.FuncDecl
	slots    []*types.Var // receiver (if any) followed by parameters
	forwards []forward
	retCalls []FuncRef // repo callees whose result is returned directly
}

// AddPackage summarizes every function declared in the pass's package
// and folds the results into the table. Safe to call from several
// analyzers; only the first call per package does work.
func (s *Summaries) AddPackage(pass *Pass) {
	if s.seen[pass.Pkg] {
		return
	}
	s.seen[pass.Pkg] = true

	var decls []*declState
	var pending []*pendingClosure
	EachFunc(pass.Files, func(decl *ast.FuncDecl) {
		fobj, ok := pass.Info.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		ref, ok := RefOf(fobj)
		if !ok {
			return
		}
		if _, dup := s.funcs[ref]; dup {
			// A test variant recompiles the base package's files; the
			// first summary (typically the base package's) wins.
			return
		}
		d := &declState{ref: ref, decl: decl, sum: &Summary{Ref: ref}}
		d.sum.Hotpath = HasDirective(decl.Doc, HotpathDirective)
		d.sum.Coldpath = HasDirective(decl.Doc, ColdpathDirective)
		sig := fobj.Type().(*types.Signature)
		if r := sig.Recv(); r != nil {
			d.slots = append(d.slots, r)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			d.slots = append(d.slots, sig.Params().At(i))
		}
		s.funcs[ref] = d.sum
		decls = append(decls, d)
		pending = append(pending, s.scanDecl(pass, d)...)
	})

	// Phase 1: propagate the ownership bit masks to a fixed point
	// through the forwarding edges (cross-package callees are already
	// final; same-package cycles converge here).
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			for _, fw := range d.forwards {
				cal := s.funcs[fw.callee]
				if cal == nil || fw.ownSlot > 63 || fw.calleeSlot > 63 {
					continue
				}
				bit := uint64(1) << uint(fw.ownSlot)
				if cal.Releases&(1<<uint(fw.calleeSlot)) != 0 && d.sum.Releases&bit == 0 {
					d.sum.Releases |= bit
					changed = true
				}
				if cal.Stores&(1<<uint(fw.calleeSlot)) != 0 && d.sum.Stores&bit == 0 {
					d.sum.Stores |= bit
					changed = true
				}
			}
			if !d.sum.ReturnsOwned {
				for _, ref := range d.retCalls {
					if cal := s.funcs[ref]; cal != nil && cal.ReturnsOwned {
						d.sum.ReturnsOwned = true
						changed = true
						break
					}
				}
			}
		}
	}

	// Phase 2: closures whose fate depended on a callee's Stores bit.
	for _, pc := range pending {
		cal := s.funcs[pc.callee]
		if cal != nil && pc.slot <= 63 && cal.Stores&(1<<uint(pc.slot)) == 0 {
			continue // callback is invoked, not retained: no heap box
		}
		if own := s.funcs[pc.owner]; own != nil {
			own.addAlloc(Alloc{Pos: pc.pos, What: "closure capture (callee may retain the func value)", In: pc.owner})
		}
	}

	// Phase 3: union allocation sites bottom-up (coldpath callees are
	// audited amortization points and do not propagate).
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			for _, ref := range d.sum.Calls {
				cal := s.funcs[ref]
				if cal == nil || cal.Coldpath {
					continue
				}
				for _, a := range cal.Allocs {
					if !d.sum.allocSet[a.Pos] {
						d.sum.addAlloc(a)
						changed = true
					}
				}
			}
		}
	}
}

// scanDecl performs the single syntactic pass over one declaration,
// recording direct effects, forwarding edges, and allocation sites.
func (s *Summaries) scanDecl(pass *Pass, d *declState) []*pendingClosure {
	info := pass.Info
	body := d.decl.Body
	parents := BuildParents(body)
	slotIdx := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			return -1
		}
		for i, p := range d.slots {
			if obj == p {
				return i
			}
		}
		return -1
	}
	var markStore func(e ast.Expr)
	markStore = func(e ast.Expr) {
		e = ast.Unparen(e)
		// `field = append(field, x)` stores x just as surely as a direct
		// assignment does: peel the append and mark the appended values.
		if call, ok := e.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 1 {
					for _, a := range call.Args[1:] {
						markStore(a)
					}
					return
				}
			}
		}
		if i := slotIdx(e); i >= 0 && i <= 63 {
			d.sum.Stores |= 1 << uint(i)
		}
	}
	seenCallee := make(map[FuncRef]bool)
	var pending []*pendingClosure

	// site records a potential allocation unless the node sits on a
	// panic-only path or is itself constant-folded.
	site := func(n ast.Node, what string) {
		if onPanicPath(parents, n, body) {
			return
		}
		if e, ok := n.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok && tv.Value != nil {
				return // constant-folded at compile time
			}
		}
		d.sum.addAlloc(Alloc{Pos: pass.Fset.Position(n.Pos()), What: what, In: d.ref})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			site(n, "goroutine spawn")

		case *ast.SendStmt:
			markStore(n.Value)

		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markStore(r)
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					if s.Model.Produces != nil && s.Model.Produces(info, call) {
						d.sum.ReturnsOwned = true
					} else if f := Callee(info, call); f != nil {
						if ref, ok := RefOf(f); ok && s.isInternal(pass, f) {
							d.retCalls = append(d.retCalls, ref)
						}
					}
				}
			}

		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					markStore(kv.Value)
				} else {
					markStore(el)
				}
			}
			switch typeUnder(info, n).(type) {
			case *types.Slice:
				site(n, "slice literal")
			case *types.Map:
				site(n, "map literal")
			}
			if u, ok := parents[n].(*ast.UnaryExpr); ok && u.Op == token.AND {
				site(n, "&composite literal")
			}

		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				l := ast.Unparen(lhs)
				switch l := l.(type) {
				case *ast.Ident:
					// Assigning a slot to a package-level variable is a
					// store; locals are frame-confined.
					if obj, ok := info.Uses[l].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
						for _, r := range n.Rhs {
							markStore(r)
						}
					}
				case *ast.IndexExpr:
					if _, isMap := typeUnder(info, l.X).(*types.Map); isMap {
						site(n, "map write")
					}
					for _, r := range n.Rhs {
						markStore(r)
					}
				default:
					// Field, dereference, slice-index stores.
					for _, r := range n.Rhs {
						markStore(r)
					}
				}
			}
			s.checkBoxedAssign(pass, d, n, site)

		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if _, isMap := typeUnder(info, ix.X).(*types.Map); isMap {
					site(n, "map write")
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := typeUnder(info, n).(*types.Basic); ok && b.Info()&types.IsString != 0 {
					site(n, "string concatenation")
				}
			}

		case *ast.FuncLit:
			if caps := capturesOuter(info, n, d.decl); caps {
				pc := s.classifyClosure(pass, d, n, parents, site)
				if pc != nil {
					pending = append(pending, pc)
				}
			}

		case *ast.CallExpr:
			s.scanCall(pass, d, n, parents, slotIdx, markStore, seenCallee, site)
		}
		return true
	})
	return pending
}

// isInternal reports whether f belongs to the package being analyzed or
// to the model's repository.
func (s *Summaries) isInternal(pass *Pass, f *types.Func) bool {
	if f.Pkg() == nil {
		return false
	}
	return f.Pkg() == pass.Pkg || f.Pkg().Path() == pass.Pkg.Path() || s.Model.internal(f.Pkg().Path())
}

// scanCall handles one call expression: builtins (make/new/append),
// direct kills, forwarding edges, external-call and boxing sites.
func (s *Summaries) scanCall(pass *Pass, d *declState, call *ast.CallExpr,
	parents map[ast.Node]ast.Node, slotIdx func(ast.Expr) int,
	markStore func(ast.Expr), seenCallee map[FuncRef]bool, site func(ast.Node, string)) {

	info := pass.Info
	fun := ast.Unparen(call.Fun)

	// Type conversions: only string <-> byte/rune slice conversions
	// allocate.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if conversionAllocates(info, call) {
			site(call, "string conversion")
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				site(call, "make")
			case "new":
				site(call, "new")
			case "append":
				if len(call.Args) > 0 && isFuncLocalSlice(info, call.Args[0], d.decl) {
					site(call, "append to function-local slice (grows from empty every call; reuse a field or parameter buffer)")
				}
			case "panic":
				// Panic arguments are off the hot path by construction.
				return
			}
			return
		}
	}

	// Direct kills (Pool.Put ...).
	if s.Model.KillSlot != nil {
		if slot, _, ok := s.Model.KillSlot(info, call); ok {
			f := Callee(info, call)
			slots := CallSlotExprs(info, call, f)
			if slot < len(slots) {
				if i := slotIdx(slots[slot]); i >= 0 && i <= 63 {
					d.sum.Releases |= 1 << uint(i)
				}
			}
			return
		}
	}

	f := Callee(info, call)
	if f == nil || f.Pkg() == nil {
		return // dynamic call or universe method (error.Error): not followed
	}
	if s.isInternal(pass, f) {
		ref, ok := RefOf(f)
		if !ok {
			return
		}
		if !seenCallee[ref] && ref != d.ref {
			seenCallee[ref] = true
			d.sum.Calls = append(d.sum.Calls, ref)
		}
		slots := CallSlotExprs(info, call, f)
		for cs, e := range slots {
			if own := slotIdx(e); own >= 0 {
				d.forwards = append(d.forwards, forward{callee: ref, calleeSlot: cs, ownSlot: own})
			}
		}
		s.checkBoxedArgs(pass, d, call, f, site)
		return
	}
	// External static call: an allocation site unless allowlisted.
	if !s.Model.noAlloc(f) {
		what := "call to " + f.Pkg().Path() + "." + f.Name() + " (not on the no-alloc allowlist)"
		site(call, what)
	}
}

// checkBoxedArgs flags arguments to repo-internal calls that convert a
// non-pointer-shaped concrete value to an interface parameter (heap box).
func (s *Summaries) checkBoxedArgs(pass *Pass, d *declState, call *ast.CallExpr, f *types.Func, site func(ast.Node, string)) {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	// Map call args (not slots) to parameter types.
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if boxAllocates(pass.Info, arg) {
			site(arg, "interface boxing")
		}
	}
}

// checkBoxedAssign flags assignments that box a concrete value into an
// interface-typed destination.
func (s *Summaries) checkBoxedAssign(pass *Pass, d *declState, as *ast.AssignStmt, site func(ast.Node, string)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		var lt types.Type
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && as.Tok == token.DEFINE {
			if obj, ok := pass.Info.Defs[id].(*types.Var); ok {
				lt = obj.Type()
			}
		} else if tv, ok := pass.Info.Types[lhs]; ok {
			lt = tv.Type
		}
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		if boxAllocates(pass.Info, as.Rhs[i]) {
			site(as.Rhs[i], "interface boxing")
		}
	}
}

// boxAllocates reports whether converting expr to an interface heap-
// allocates: its static type is concrete and not pointer-shaped.
func boxAllocates(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(expr)]
	if !ok || tv.IsNil() || tv.Value != nil || tv.Type == nil {
		return false // untracked, nil, or compile-time constant
	}
	t := tv.Type
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	}
	if b, ok := types.Unalias(t).Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

// conversionAllocates reports whether a type conversion call copies into
// fresh heap memory (string <-> []byte / []rune).
func conversionAllocates(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	to, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	from, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	isString := func(t types.Type) bool {
		b, ok := types.Unalias(t).Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := types.Unalias(t).Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(to.Type) && isByteSlice(from.Type)) || (isByteSlice(to.Type) && isString(from.Type))
}

// typeUnder returns the expression's type, or nil.
func typeUnder(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return nil
	}
	return types.Unalias(tv.Type).Underlying()
}

// isFuncLocalSlice reports whether e names a slice variable declared
// inside the function body — the append destinations that grow from
// empty on every invocation. Parameters and fields are reused buffers
// and stay exempt.
func isFuncLocalSlice(info *types.Info, e ast.Expr, decl *ast.FuncDecl) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj, _ := info.Uses[id].(*types.Var)
	if obj == nil {
		obj, _ = info.Defs[id].(*types.Var)
	}
	if obj == nil {
		return false
	}
	if _, isSlice := types.Unalias(obj.Type()).Underlying().(*types.Slice); !isSlice {
		return false
	}
	return obj.Pos() >= decl.Body.Pos() && obj.Pos() <= decl.Body.End()
}

// capturesOuter reports whether the function literal references a
// variable declared in the enclosing function — receiver and parameters
// included, since capturing those boxes the closure context just the
// same (locals declared inside the literal itself don't count).
func capturesOuter(info *types.Info, lit *ast.FuncLit, decl *ast.FuncDecl) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if obj.Pos() >= decl.Pos() && obj.Pos() < lit.Pos() {
			found = true
		}
		return true
	})
	return found
}

// classifyClosure decides what a capturing function literal costs: a
// literal passed straight to a non-retaining repo function is invoked,
// not boxed on the heap; anything else is a site (or pends on the
// callee's Stores bit).
func (s *Summaries) classifyClosure(pass *Pass, d *declState, lit *ast.FuncLit,
	parents map[ast.Node]ast.Node, site func(ast.Node, string)) *pendingClosure {

	parent := parents[lit]
	call, ok := parent.(*ast.CallExpr)
	if !ok || call.Fun == lit {
		// Stored, returned, go'd (GoStmt's own site covers the spawn),
		// or immediately invoked; immediate invocation doesn't box.
		if _, ok := parent.(*ast.GoStmt); ok {
			return nil
		}
		if ok && call.Fun == lit {
			return nil
		}
		if _, ok := parent.(*ast.DeferStmt); ok {
			return nil // open-coded defers don't heap-allocate the closure
		}
		site(lit, "closure captures variables and escapes")
		return nil
	}
	f := Callee(pass.Info, call)
	if f == nil {
		site(lit, "closure passed to dynamic call")
		return nil
	}
	if !s.isInternal(pass, f) {
		if s.Model.noAlloc(f) {
			return nil
		}
		site(lit, "closure passed to external call")
		return nil
	}
	ref, ok := RefOf(f)
	if !ok {
		return nil
	}
	slots := CallSlotExprs(pass.Info, call, f)
	for i, e := range slots {
		if ast.Unparen(e) == ast.Expr(lit) {
			return &pendingClosure{owner: d.ref, pos: pass.Fset.Position(lit.Pos()), callee: ref, slot: i}
		}
	}
	return nil
}

// EachFunc applies fn to every function declaration with a body across
// the package's files.
func EachFunc(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// Callee resolves the *types.Func a call statically invokes (function,
// method, or method expression), or nil for dynamic calls.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// CallSlotExprs maps a call's syntax onto the callee's ownership slots:
// for a method value call the receiver expression is slot 0 and the
// arguments follow; for everything else the arguments are the slots (a
// method expression passes the receiver as the first argument, which
// lines up).
func CallSlotExprs(info *types.Info, call *ast.CallExpr, f *types.Func) []ast.Expr {
	if f == nil {
		return call.Args
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return call.Args
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			slots := make([]ast.Expr, 0, len(call.Args)+1)
			slots = append(slots, sel.X)
			return append(slots, call.Args...)
		}
	}
	return call.Args
}

// BuildParents maps each node under root to its parent, for context
// queries (enclosing blocks, call arguments, panic paths).
func BuildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// onPanicPath reports whether n sits inside a block whose final
// statement panics — guard code that never runs on the steady-state
// path (checkLive-style poison checks).
func onPanicPath(parents map[ast.Node]ast.Node, n ast.Node, body *ast.BlockStmt) bool {
	for p := n; p != nil; p = parents[p] {
		if call, ok := p.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
		blk, ok := p.(*ast.BlockStmt)
		if !ok {
			continue
		}
		if len(blk.List) == 0 {
			continue
		}
		if es, ok := blk.List[len(blk.List)-1].(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}
