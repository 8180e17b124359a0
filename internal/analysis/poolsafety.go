package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafety enforces the PR 2 worker-pool conventions that carry the
// bit-identity and race-freedom guarantees of the parallel force
// kernels:
//
//   - inside a chunk closure handed to pool.sweep/sweepElems/sweepSpans,
//     writes that reach shared (captured) slices must be indexed through
//     values derived from the chunk's own arguments — its element
//     sub-list (one coloring class), its [lo,hi) bounds or its point
//     spans — so two concurrent chunks can never touch the same entry;
//   - plain captured variables may not be written from a chunk at all;
//   - a pointer &x[i] into shared state handed to a bodiless (assembly)
//     function is a write the analyzer cannot follow and the runtime
//     cannot bounds-check: it must be taken through chunk-derived
//     indices too — in the solver, from a sub-slice capped at the
//     element's own block (a[lo:hi:hi]) — so the bound is checked in Go
//     before the call and two chunks never hand out the same memory;
//   - the per-worker kernelScratch handed to the chunk must not escape
//     into captured state — scratch contents are worker-private and
//     stale between sweeps.
//
// The derivation rules are a local taint analysis, propagated one call
// layer at a time into same-package helpers that receive the chunk's
// arguments or views of them (forcesChunk, the fields' visit methods,
// predictFlat on flat(f.d[lo:hi])), and into the parameters of a
// function literal passed along with chunk-derived bounds (the page
// walk's callback). Reads are unrestricted: the
// coloring invariant (mesh.BuildColoring) guarantees same-color
// elements share no Ibool point, which is exactly why a write indexed
// through the chunk's own elements is safe.
var PoolSafety = &Analyzer{
	Name:   "poolsafety",
	Pragma: "nopoolsafety",
	Doc: "check pool chunk closures in the solver: shared-slice writes " +
		"indexed by the chunk's own range/coloring class only, no captured-" +
		"variable writes, no kernelScratch escape (PR 2); see " +
		"DESIGN.md#invariants-as-analyzers",
	Run: runPoolSafety,
}

var poolSweepNames = map[string]bool{"sweep": true, "sweepElems": true, "sweepSpans": true}

func runPoolSafety(pass *Pass) error {
	if !pass.scopedTo("solver") {
		return nil
	}
	ps := &poolState{
		pass:     pass,
		decls:    declIndex(pass),
		bodiless: map[*types.Func]bool{},
		memo:     map[string]bool{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body == nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					ps.bodiless[obj] = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(pass.TypesInfo, call)
			if callee == nil || !poolSweepNames[callee.Name()] || recvTypeName(callee) != "pool" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			ps.analyzeChunk(lit)
			return true
		})
	}
	return nil
}

type poolState struct {
	pass     *Pass
	decls    map[*types.Func]*ast.FuncDecl
	bodiless map[*types.Func]bool // declared without a body: implemented in assembly
	memo     map[string]bool      // decl ptr + param-kind signature already analyzed
}

// kind classifies how a value relates to the chunk.
type kind int

const (
	kindShared  kind = iota // captured or derived from captured state
	kindSafe                // derived from the chunk's own arguments
	kindScratch             // the worker's kernelScratch or an alias into it
	kindFresh               // allocated inside the analyzed body
)

// ctx is one body under analysis: a chunk closure or a helper reached
// from one.
type ctx struct {
	ps    *poolState
	root  ast.Node // FuncLit or FuncDecl: declarations inside are local
	body  *ast.BlockStmt
	kinds map[types.Object]kind // params and classified locals
	depth int
}

// analyzeChunk analyzes a closure literal passed to a pool sweep. Its
// parameters are the chunk's own arguments: kernelScratch parameters
// are the worker's scratch, everything else (element sub-list, lo/hi
// bounds) is chunk-derived and safe to index writes with.
func (ps *poolState) analyzeChunk(lit *ast.FuncLit) {
	c := &ctx{ps: ps, root: lit, body: lit.Body, kinds: map[types.Object]kind{}}
	for _, field := range lit.Type.Params.List {
		k := kindSafe
		if isKernelScratch(ps.pass.TypesInfo, field.Type) {
			k = kindScratch
		}
		for _, name := range field.Names {
			if obj := ps.pass.TypesInfo.Defs[name]; obj != nil {
				c.kinds[obj] = k
			}
		}
	}
	c.run()
}

// isKernelScratch matches *kernelScratch (or kernelScratch) parameters.
func isKernelScratch(info *types.Info, typ ast.Expr) bool {
	t := info.TypeOf(typ)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "kernelScratch"
}

func (c *ctx) run() {
	c.classifyLocals()
	c.checkWrites()
	c.propagateCalls()
}

func (c *ctx) obj(id *ast.Ident) types.Object {
	info := c.ps.pass.TypesInfo
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// localTo reports whether the object is declared within the analyzed
// node (parameters and receiver included for declarations).
func (c *ctx) localTo(o types.Object) bool {
	return o != nil && o.Pos() >= c.root.Pos() && o.Pos() <= c.root.End()
}

// classifyLocals runs the derivation fixpoint: a local is safe when
// every value assigned to it is chunk-derived, scratch when any
// assignment aliases the worker scratch, fresh when every assignment
// allocates.
func (c *ctx) classifyLocals() {
	info := c.ps.pass.TypesInfo
	// Collect assignment shapes once.
	type src struct {
		exprs   []ast.Expr // direct RHS expressions
		ranges  []ast.Expr // ranged-over expressions feeding key/value vars
		rangeIx bool       // object is a range key over a slice/array (int index)
		unknown bool       // an assignment shape we do not model
	}
	srcs := map[types.Object]*src{}
	get := func(o types.Object) *src {
		s := srcs[o]
		if s == nil {
			s = &src{}
			srcs[o] = s
		}
		return s
	}
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						if o := c.obj(id); c.localTo(o) {
							get(o).exprs = append(get(o).exprs, st.Rhs[i])
						}
					}
				}
			} else {
				for _, lhs := range st.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						if o := c.obj(id); c.localTo(o) {
							get(o).unknown = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			for i, e := range []ast.Expr{st.Key, st.Value} {
				if e == nil {
					continue
				}
				if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
					if o := c.obj(id); c.localTo(o) {
						s := get(o)
						s.ranges = append(s.ranges, st.X)
						if i == 0 {
							if t := info.TypeOf(st.X); t != nil {
								switch t.Underlying().(type) {
								case *types.Slice, *types.Array, *types.Pointer:
									s.rangeIx = true
								}
							}
						}
					}
				}
			}
		}
		return true
	})
	// Callbacks: a function literal handed to a call together with
	// chunk-derived bounds (pageMarks.eachLive(first, end, fn)) is
	// called on pieces of those bounds, so its parameters are
	// chunk-derived.
	var callbacks []*ast.CallExpr
	ast.Inspect(c.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, a := range call.Args {
				if _, ok := unparen(a).(*ast.FuncLit); ok {
					callbacks = append(callbacks, call)
					break
				}
			}
		}
		return true
	})
	// Fixpoint.
	for changed := true; changed; {
		changed = false
		for _, call := range callbacks {
			if c.boundsCall(call) {
				for _, a := range call.Args {
					if lit, ok := unparen(a).(*ast.FuncLit); ok && c.markParams(lit) {
						changed = true
					}
				}
			}
		}
		for o, s := range srcs {
			if _, done := c.kinds[o]; done {
				continue
			}
			if s.unknown {
				continue
			}
			scratch, allSafe, allFresh := false, true, true
			for _, e := range s.exprs {
				if c.scratchExpr(e) {
					scratch = true
				}
				if !c.safeExpr(e) {
					allSafe = false
				}
				if !freshExpr(e) {
					allFresh = false
				}
			}
			for _, e := range s.ranges {
				allFresh = false
				if c.scratchExpr(e) {
					scratch = true
				}
				if !c.safeExpr(e) {
					allSafe = false
				}
			}
			switch {
			case scratch:
				c.kinds[o] = kindScratch
				changed = true
			case allSafe && (len(s.exprs)+len(s.ranges)) > 0:
				c.kinds[o] = kindSafe
				changed = true
			case allFresh && len(s.exprs) > 0:
				c.kinds[o] = kindFresh
				changed = true
			}
		}
	}
}

// boundsCall reports whether every argument of call other than its
// function literals is chunk-derived, and one varies with the chunk.
func (c *ctx) boundsCall(call *ast.CallExpr) bool {
	varying := false
	for _, a := range call.Args {
		if _, ok := unparen(a).(*ast.FuncLit); ok {
			continue
		}
		if !c.safeExpr(a) {
			return false
		}
		varying = varying || c.chunkVarying(a)
	}
	return varying
}

// markParams classifies the parameters of a callback literal as
// chunk-derived and reports whether any was not yet classified.
func (c *ctx) markParams(lit *ast.FuncLit) bool {
	marked := false
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if o := c.ps.pass.TypesInfo.Defs[name]; o != nil {
				if _, done := c.kinds[o]; !done {
					c.kinds[o] = kindSafe
					marked = true
				}
			}
		}
	}
	return marked
}

// freshExpr matches allocations: make/new, composite literals, and
// addresses of composite literals.
func freshExpr(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.CallExpr:
		if id, ok := unparen(x.Fun).(*ast.Ident); ok {
			return id.Name == "make" || id.Name == "new"
		}
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			_, ok := unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	}
	return false
}

// safeExpr reports whether an expression's value is derived only from
// the chunk's own arguments and constants — the values a shared write
// may be indexed with. Reading a captured array at a safe index yields
// a safe value (elems→Ibool→global point id is the coloring-class
// path).
func (c *ctx) safeExpr(e ast.Expr) bool {
	info := c.ps.pass.TypesInfo
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true // constants, including named package-level ones
	}
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return c.kinds[c.obj(x)] == kindSafe
	case *ast.ParenExpr:
		return c.safeExpr(x.X)
	case *ast.UnaryExpr:
		return c.safeExpr(x.X)
	case *ast.StarExpr:
		return c.safeExpr(x.X)
	case *ast.BinaryExpr:
		return c.safeExpr(x.X) && c.safeExpr(x.Y)
	case *ast.IndexExpr:
		return c.safeExpr(x.Index)
	case *ast.SliceExpr:
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b != nil && !c.safeExpr(b) {
				return false
			}
		}
		return true
	case *ast.SelectorExpr:
		if root := rootIdent(x); root != nil {
			return c.kinds[c.obj(root)] == kindSafe
		}
		return false
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			for _, a := range x.Args {
				if !c.safeExpr(a) {
					return false
				}
			}
			return true // conversion of safe values
		}
		if id, ok := unparen(x.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "len", "cap", "min", "max":
				for _, a := range x.Args {
					if !c.safeExpr(a) {
						return false
					}
				}
				return true
			}
		}
		return false
	}
	return false
}

// scratchExpr reports whether an expression reaches the worker's
// kernelScratch: rooted, through any selector/index/address chain, at a
// scratch-kinded variable.
func (c *ctx) scratchExpr(e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	return c.kinds[c.obj(root)] == kindScratch
}

// aliasing reports whether the expression's type can carry a reference
// into scratch memory — a plain numeric value copied out of scratch
// (accel[g] += ks.t1[k]) is not an escape.
func (c *ctx) aliasing(e ast.Expr) bool {
	t := c.ps.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return true // unresolved: stay conservative
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface, *types.Array:
		return true
	case *types.Struct:
		return true // may embed slices/pointers into scratch
	}
	return false
}

// chunkVarying reports whether the expression mentions at least one
// chunk-derived variable — the property that makes concurrent chunks
// touch different memory.
func (c *ctx) chunkVarying(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if c.kinds[c.obj(id)] == kindSafe {
				found = true
			}
		}
		return true
	})
	return found
}

// checkWrites validates every assignment and inc/dec in the body, plus
// scratch-escape through stores, sends and spawned goroutines.
func (c *ctx) checkWrites() {
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				c.checkWrite(unparen(lhs))
			}
			for _, rhs := range st.Rhs {
				if c.scratchExpr(rhs) && c.aliasing(rhs) {
					for _, lhs := range st.Lhs {
						if root := rootIdent(unparen(lhs)); root != nil {
							o := c.obj(root)
							if !c.localTo(o) && c.kinds[o] == kindShared {
								c.ps.pass.Reportf(rhs.Pos(),
									"per-worker kernelScratch escapes the pool chunk into captured state: scratch is worker-private and stale between sweeps")
							}
						}
					}
				}
			}
		case *ast.IncDecStmt:
			c.checkWrite(unparen(st.X))
		case *ast.SendStmt:
			if c.scratchExpr(st.Value) && c.aliasing(st.Value) {
				c.ps.pass.Reportf(st.Value.Pos(),
					"per-worker kernelScratch escapes the pool chunk through a channel send")
			}
		case *ast.GoStmt:
			for _, a := range st.Call.Args {
				if c.scratchExpr(a) && c.aliasing(a) {
					c.ps.pass.Reportf(a.Pos(),
						"per-worker kernelScratch escapes the pool chunk into a spawned goroutine")
				}
			}
		}
		return true
	})
}

// checkWrite validates one write destination.
func (c *ctx) checkWrite(lhs ast.Expr) {
	info := c.ps.pass.TypesInfo
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		o := c.obj(id)
		if o == nil || c.localTo(o) {
			return // chunk-local variable (parameters are value copies)
		}
		if _, isVar := o.(*types.Var); isVar {
			c.ps.pass.Reportf(id.Pos(),
				"write to captured variable %s inside a pool chunk: chunks run concurrently — accumulate into chunk-indexed state instead", id.Name)
		}
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		return
	}
	switch c.kinds[c.obj(root)] {
	case kindScratch, kindFresh:
		return
	}
	// Writing through shared state: a concurrent map write is never
	// safe; slice writes need chunk-derived indices.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if t := info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				c.ps.pass.Reportf(lhs.Pos(),
					"map write inside a pool chunk: map writes are unsynchronized — build per-chunk maps and merge after the sweep")
				return
			}
		}
	}
	if !c.indicesSafe(lhs) || !c.chunkVarying(lhs) {
		c.ps.pass.Reportf(lhs.Pos(),
			"write to shared state is not indexed through the chunk's own range or coloring class: concurrent chunks may collide (see pool.sweepElems)")
	}
}

// indicesSafe checks every index and slice bound along the destination
// chain.
func (c *ctx) indicesSafe(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if !c.safeExpr(x.Index) {
				return false
			}
			e = x.X
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
				if b != nil && !c.safeExpr(b) {
					return false
				}
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return true
		}
	}
}

// checkAsmArgs validates a call to a bodiless function from chunk
// context. Every &x[i] among its arguments (composite-literal fields
// included) is memory the assembly may write with no bounds check, so
// it falls under the shared-write rule: worker scratch and fresh
// allocations are free, anything else must be reached through
// chunk-derived indices.
func (c *ctx) checkAsmArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			u, ok := n.(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			target := unparen(u.X)
			if _, ok := target.(*ast.IndexExpr); !ok {
				return true // &T{...} argument blocks, &local
			}
			if root := rootIdent(target); root != nil {
				switch c.kinds[c.obj(root)] {
				case kindScratch, kindFresh:
					return true
				}
			}
			if !c.indicesSafe(target) || !c.chunkVarying(target) {
				c.ps.pass.Reportf(u.Pos(),
					"pointer into shared state handed to an assembly function is not taken through the chunk's own range or coloring class: its bounds go unchecked and concurrent chunks may collide")
			}
			return true
		})
	}
}

// viewOf reports whether e is a call of a same-package function on
// chunk-derived arguments only — a view of the chunk's own piece, such
// as flat(f.a[lo:hi]) — which a helper receiving it is checked with as
// chunk-derived. It is not a safe index: writes still need safeExpr.
func (c *ctx) viewOf(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if _, ok := c.ps.decls[calleeOf(c.ps.pass.TypesInfo, call)]; !ok || len(call.Args) == 0 {
		return false
	}
	for _, a := range call.Args {
		if !c.safeExpr(a) && !c.viewOf(a) {
			return false
		}
	}
	return true
}

// propagateCalls follows the chunk's arguments into same-package
// helpers: a call f(ks, elems) makes f's parameters scratch/safe for
// one more analysis layer, so the force chunk and visit helpers are checked
// under the same rules as the literal.
func (c *ctx) propagateCalls() {
	if c.depth >= 6 {
		return
	}
	info := c.ps.pass.TypesInfo
	ast.Inspect(c.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil {
			return true
		}
		if c.ps.bodiless[callee] {
			c.checkAsmArgs(call)
			return true
		}
		decl, ok := c.ps.decls[callee]
		if !ok || decl.Body == nil {
			return true
		}
		kinds := map[types.Object]kind{}
		sigKey := ""
		// Receiver: scratch propagates (k.grad with k an alias into ks);
		// anything else stays shared.
		if decl.Recv != nil && len(decl.Recv.List) > 0 && len(decl.Recv.List[0].Names) > 0 {
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && c.scratchExpr(sel.X) {
				if o := info.Defs[decl.Recv.List[0].Names[0]]; o != nil {
					kinds[o] = kindScratch
					sigKey += "R"
				}
			}
		}
		// Positional parameters (variadic tails and multi-name fields
		// handled by flattening).
		var params []*ast.Ident
		for _, field := range decl.Type.Params.List {
			params = append(params, field.Names...)
		}
		for i, p := range params {
			if i >= len(call.Args) {
				break
			}
			arg := call.Args[i]
			k := kindShared
			switch {
			case c.scratchExpr(arg):
				k = kindScratch
			case c.safeExpr(arg) || c.viewOf(arg):
				k = kindSafe
			}
			if o := info.Defs[p]; o != nil && k != kindShared {
				kinds[o] = k
				sigKey += fmt.Sprintf("%d:%d;", i, k)
			}
		}
		if len(kinds) == 0 {
			return true // nothing chunk-derived flows in; helper is not a chunk body
		}
		memoKey := fmt.Sprintf("%p|%s", decl, sigKey)
		if c.ps.memo[memoKey] {
			return true
		}
		c.ps.memo[memoKey] = true
		sub := &ctx{ps: c.ps, root: decl, body: decl.Body, kinds: kinds, depth: c.depth + 1}
		sub.run()
		return true
	})
}
