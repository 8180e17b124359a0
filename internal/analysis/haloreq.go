package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HaloReq enforces the two halo-exchange invariants of the mpi
// runtime. Every request returned by a non-blocking mpi Irecv must
// reach completion — Wait, Test, or Waitall — or escape to a caller who
// will complete it. A request that is dropped on some path is a
// deadlock at scale (the peer eventually blocks in its own Wait) and
// silently corrupts the hidden-vs-exposed overlap accounting, because
// the virtual transfer cost is only charged at completion. And a slice
// handed to Isend belongs to the receiver, which reads it
// later and may pack its own messages into it: the sender must not
// write it again (checkSendBuffers).
var HaloReq = &Analyzer{
	Name:   "haloreq",
	Pragma: "nohaloreq",
	Doc: "check that every mpi.Irecv request reaches Wait/Test/Waitall " +
		"or escapes to the caller (halo pairing, PR 1), and that no " +
		"slice is written after it was handed to Isend; see " +
		"DESIGN.md#invariants-as-analyzers",
	Run: runHaloReq,
}

func runHaloReq(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHaloReqs(pass, fd)
			checkSendBuffers(pass, fd)
		}
	}
	return nil
}

// checkHaloReqs analyzes one function body (closures included — a
// request created in a closure is the closure's responsibility, but
// uses anywhere in the enclosing declaration count, since closures and
// their host share the variables).
func checkHaloReqs(pass *Pass, fd *ast.FuncDecl) {
	parents := buildParents(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil || callee.Name() != "Irecv" || !funcFromPkg(callee, "mpi") {
			return true
		}
		switch parent := parentSkipParens(parents, call).(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(),
				"result of Irecv is discarded: the request never reaches Wait/Test/Waitall (leaked halo receive)")
		case *ast.AssignStmt:
			obj := assignTarget(pass.TypesInfo, parent, call)
			if obj == blankTarget {
				pass.Reportf(call.Pos(),
					"result of Irecv is assigned to _: the request never reaches Wait/Test/Waitall (leaked halo receive)")
				return true
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return true // non-ident destination: escapes, assumed completed elsewhere
			}
			if !requestCompleted(pass.TypesInfo, fd, parents, v) {
				pass.Reportf(call.Pos(),
					"request %s from Irecv never reaches Wait, Test, or Waitall in this function and does not escape", v.Name())
			}
		default:
			// Direct use as an argument, return value, composite-literal
			// element, channel send, ...: the request escapes into a
			// structure whose owner completes it.
		}
		return true
	})
}

// blankTarget marks assignment to the blank identifier.
var blankTarget = types.Object(types.NewLabel(0, nil, "_blank"))

// assignTarget finds the object the call's value lands in, blankTarget
// for _, or nil when the destination is not a plain identifier.
func assignTarget(info *types.Info, as *ast.AssignStmt, call *ast.CallExpr) types.Object {
	if len(as.Lhs) != len(as.Rhs) {
		return nil // multi-value form; Irecv is single-valued, cannot occur
	}
	for i, rhs := range as.Rhs {
		if unparen(rhs) != call {
			continue
		}
		id, ok := unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			return nil
		}
		if id.Name == "_" {
			return blankTarget
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	return nil
}

// requestCompleted reports whether the request variable (or any local
// alias of it) has at least one completing use in the declaration:
// a .Wait/.Test call or method value, use as a call argument (Waitall,
// append into a pending slice), storage into a structure, a return, or
// a channel send. This is a may-analysis, not a control-flow proof: a
// request completed only on some branches still counts. The value of
// the check is the common failure shape — a posted receive whose
// handle no code path ever touches again.
func requestCompleted(info *types.Info, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, v *types.Var) bool {
	group := map[types.Object]bool{v: true}
	for {
		completed, grew := scanRequestUses(info, fd, parents, group)
		if completed {
			return true
		}
		if !grew {
			return false
		}
	}
}

func scanRequestUses(info *types.Info, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, group map[types.Object]bool) (completed, grew bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if completed {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !group[obj] {
			return true
		}
		switch parent := parentSkipParens(parents, id).(type) {
		case *ast.SelectorExpr:
			if parent.X == id && (parent.Sel.Name == "Wait" || parent.Sel.Name == "Test") {
				completed = true
			}
		case *ast.CallExpr:
			for _, arg := range parent.Args {
				if unparen(arg) == id {
					completed = true // Waitall(reqs), append(pending, req), helper(req)
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.UnaryExpr:
			completed = true // escapes to the caller / a structure
		case *ast.IndexExpr:
			if parent.Index == id {
				return true
			}
			completed = true // reqs[i] store or read-through: escapes
		case *ast.AssignStmt:
			// On the right-hand side: the request flows into another
			// variable; track it too. On the left: overwrite, not a use.
			for i, rhs := range parent.Rhs {
				if unparen(rhs) != id || len(parent.Lhs) != len(parent.Rhs) {
					continue
				}
				lhs := unparen(parent.Lhs[i])
				lid, ok := lhs.(*ast.Ident)
				if !ok {
					completed = true // stored into a field/slot: escapes
					continue
				}
				var dst types.Object
				if dst = info.Defs[lid]; dst == nil {
					dst = info.Uses[lid]
				}
				if dst != nil && !group[dst] {
					group[dst] = true
					grew = true
				}
			}
		}
		return true
	})
	return completed, grew
}

// checkSendBuffers enforces Isend's hand-over contract in one function
// declaration. For each mpi Isend whose payload is a local
// slice variable buf (or a slice of it), it reports a write through
// buf — buf[i] = …, buf[i] op= …, buf[i]++, copy or append into buf, or
// buf (sliced or not) passed to any other call, including a second
// send — that can run after the send: one later in the function, or
// one anywhere in a loop around the send when buf is declared outside
// that loop and the loop never rebinds it (the next iteration would
// write what the last one sent). An assignment to buf itself rebinds it
// to another array and ends the check of later writes. It also reports
// a payload taken from a field or element of a structure (x.f, x.f[i],
// x.f[:n], directly or through buf) when the function does not assign
// that place after the send: the structure still holds the array, and
// its owner would write it on the next use — a reused pack buffer. Like
// the request check this is a may-analysis over source order, not a
// control-flow proof.
func checkSendBuffers(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	parents := buildParents(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || !funcFromPkg(callee, "mpi") || callee.Name() != "Isend" {
			return true
		}
		payload := sliceRoot(call.Args[2])
		loop := enclosingLoop(parents, call)
		if id, ok := payload.(*ast.Ident); ok {
			v, ok := info.Uses[id].(*types.Var)
			if !ok || v.Pos() < fd.Pos() || v.Pos() >= fd.End() {
				return true // not a local of this declaration
			}
			checkWritesAfterSend(pass, fd, call, loop, v)
			for _, src := range heldSources(info, fd, call, v) {
				checkHolderCleared(pass, fd, call, loop, id.Name, src)
			}
			return true
		}
		if isHeld(payload) {
			checkHolderCleared(pass, fd, call, loop, types.ExprString(payload), payload)
		}
		return true
	})
}

// sliceRoot strips parentheses and slice expressions: the expression
// whose array a slice shares.
func sliceRoot(e ast.Expr) ast.Expr {
	for {
		switch x := unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		default:
			return x
		}
	}
}

// isHeld reports whether e names a place inside a structure: a field,
// or an element reached through one.
func isHeld(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return isHeld(sliceRoot(x.X))
	}
	return false
}

// enclosingLoop returns the innermost for or range statement around n
// in the declaration, or nil.
func enclosingLoop(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return p
		case *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// within reports whether pos lies inside node n.
func within(pos token.Pos, n ast.Node) bool { return n != nil && pos >= n.Pos() && pos < n.End() }

// checkWritesAfterSend reports the writes through v that can follow the
// send call (see checkSendBuffers).
func checkWritesAfterSend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, loop ast.Node, v *types.Var) {
	info := pass.TypesInfo
	roots := func(e ast.Expr) bool {
		id, ok := sliceRoot(e).(*ast.Ident)
		return ok && info.Uses[id] == v
	}
	// Rebinding assignments of v, by position.
	var rebinds []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
			for _, l := range as.Lhs {
				if id, ok := unparen(l).(*ast.Ident); ok && (info.Uses[id] == v || info.Defs[id] == v) {
					rebinds = append(rebinds, as.Pos())
				}
			}
		}
		return true
	})
	wraps := loop != nil && !within(v.Pos(), loop)
	if wraps {
		for _, r := range rebinds {
			if within(r, loop) {
				wraps = false
			}
		}
	}
	live := func(pos token.Pos) bool {
		if wraps && within(pos, loop) {
			return true
		}
		if pos < call.End() {
			return false
		}
		for _, r := range rebinds {
			if r > call.End() && r < pos {
				return false
			}
		}
		return true
	}
	report := func(pos token.Pos, how string) {
		if live(pos) {
			pass.Reportf(pos, "%s writes %s after it was handed to %s: the receiver owns the array now (mpi.Isend does not copy)",
				how, v.Name(), unparen(call.Fun).(*ast.SelectorExpr).Sel.Name)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if ix, ok := unparen(l).(*ast.IndexExpr); ok && roots(ix.X) {
					report(l.Pos(), "assignment")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := unparen(x.X).(*ast.IndexExpr); ok && roots(ix.X) {
				report(x.Pos(), "increment")
			}
		case *ast.CallExpr:
			if x == call {
				return true
			}
			if id, ok := unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					return true
				}
			}
			for _, a := range x.Args {
				if roots(a) {
					report(a.Pos(), "call "+types.ExprString(x.Fun))
				}
			}
		}
		return true
	})
}

// heldSources returns the structure places v is taken from before the
// send (buf := x.f[:n]).
func heldSources(info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr, v *types.Var) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() > call.Pos() || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := unparen(l).(*ast.Ident)
			if !ok || (info.Uses[id] != v && info.Defs[id] != v) {
				continue
			}
			if r := sliceRoot(as.Rhs[i]); isHeld(r) {
				out = append(out, r)
			}
		}
		return true
	})
	return out
}

// checkHolderCleared reports a send whose payload, named name, shares
// the array of the structure place src, unless the function assigns
// src after the send (in the send's loop when there is one).
func checkHolderCleared(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, loop ast.Node, name string, src ast.Expr) {
	path := types.ExprString(src)
	cleared := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() < call.End() || (loop != nil && !within(as.Pos(), loop)) {
			return true
		}
		for _, l := range as.Lhs {
			if types.ExprString(unparen(l)) == path {
				cleared = true
			}
		}
		return true
	})
	if !cleared {
		pass.Reportf(call.Pos(),
			"payload %s shares the array of %s, which still holds it after the send: the receiver owns it now (mpi.Isend does not copy) — assign %s after handing it over, or send a fresh slice",
			name, path, path)
	}
}
