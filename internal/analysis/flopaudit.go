package analysis

import (
	"go/ast"
	"go/types"
)

// FlopAudit makes the PR 4 flop/byte accounting audit permanent. In the
// solver package, a function containing floating-point loops must be
// accounted: either it charges the analytic model itself (Profiler.
// Charge with a perf.Work built from the FlopCounts/ByteCounts
// constants) or it is called — directly or transitively — by a function
// that does, the way the step's beat switch covers every kernel it
// runs.
// In the simd package the exported kernels are the accounting contract
// surface (their call sites in the solver charge the per-element
// constants), so exported functions and everything they reach are
// covered by convention; an unexported simd function with float loops
// that no exported kernel reaches is dead or unaccounted. Intentional
// exceptions (setup work outside the stepped main loop) carry
// //specfem:noaccount with a reason.
var FlopAudit = &Analyzer{
	Name:   "flopaudit",
	Pragma: "noaccount",
	Doc: "check that floating-point loops in solver/simd are reached by " +
		"perf flop/byte accounting (FlopCounts/Profiler.Charge); " +
		"see DESIGN.md#invariants-as-analyzers",
	Run: runFlopAudit,
}

func runFlopAudit(pass *Pass) error {
	if !pass.scopedTo("solver", "simd") {
		return nil
	}
	decls := declIndex(pass)
	graph := callGraph(pass, decls)

	// Roots of coverage: accounting functions in the solver, the
	// exported contract surface in simd.
	covered := map[*types.Func]bool{}
	var work []*types.Func
	simd := pass.scopedTo("simd")
	for obj, fd := range decls {
		root := false
		if simd {
			root = fd.Name.IsExported()
		} else {
			root = callsAccounting(pass.TypesInfo, fd.Body)
		}
		if root {
			covered[obj] = true
			work = append(work, obj)
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range graph[obj] {
			if !covered[callee] {
				covered[callee] = true
				work = append(work, callee)
			}
		}
	}

	for obj, fd := range decls {
		if covered[obj] {
			continue
		}
		if !hasFloatLoop(pass.TypesInfo, fd.Body) {
			continue
		}
		pass.Reportf(fd.Name.Pos(),
			"%s has floating-point loops but is not reached by perf flop/byte accounting (Profiler.Charge via FlopCounts/ByteCounts); annotate //specfem:noaccount <reason> if the work is intentionally uncounted", fd.Name.Name)
	}
	return nil
}

// callsAccounting reports whether body directly charges the perf model.
func callsAccounting(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPerfCharge(info, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isPerfCharge matches Charge calls on the perf profiler.
func isPerfCharge(info *types.Info, call *ast.CallExpr) bool {
	callee := calleeOf(info, call)
	return funcFromPkg(callee, "perf") && recvTypeName(callee) == "Profiler" && callee.Name() == "Charge"
}
