package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PhasePair keeps the perf profiler's attribution honest — the
// accounting the paper-style CommFraction, per-phase roofline and
// per-beat numbers are built from:
//
//   - a Profiler.Start must be paired with a Stop in the same function
//     (deferred or direct), or the whole run's busy-time denominator is
//     garbage; a Profiler.Mark, which opens a step's first beat, must be
//     paired with a Charge, which closes each beat, or the step's time
//     is never attributed;
//   - a Charge must sit next to accounted work: the enclosing function
//     must dispatch a pool sweep (whose busy time the rank charges to a
//     phase) or run the floating-point loop being counted, itself or
//     through the same-package functions it calls. A Charge that reaches
//     neither is accounting for work that happens somewhere else — the
//     drift the flop/byte audit hunted by hand.
var PhasePair = &Analyzer{
	Name:   "phasepair",
	Pragma: "nophasepair",
	Doc: "check perf attribution hygiene: Start/Stop and Mark/Charge " +
		"pairing, and Charge calls reach accounted work; see " +
		"DESIGN.md#invariants-as-analyzers",
	Run: runPhasePair,
}

func runPhasePair(pass *Pass) error {
	decls := declIndex(pass)
	graph := callGraph(pass, decls)

	// work[obj]: the declaration dispatches a pool sweep or runs a float
	// loop, closed transitively over the call graph.
	work := map[*types.Func]bool{}
	for obj, fd := range decls {
		work[obj] = dispatchesOrLoops(pass.TypesInfo, fd.Body)
	}
	for changed := true; changed; {
		changed = false
		for obj := range decls {
			if work[obj] {
				continue
			}
			for _, callee := range graph[obj] {
				if work[callee] {
					work[obj], changed = true, true
					break
				}
			}
		}
	}

	for obj, fd := range decls {
		checkPairs(pass, fd)
		if work[obj] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isPerfCharge(pass.TypesInfo, call) {
				pass.Reportf(call.Pos(),
					"Charge with no accounted work reached from this function (no pool sweep or floating-point loop): charge the beat where the work is run")
			}
			return true
		})
	}
	return nil
}

// dispatchesOrLoops reports whether body dispatches a pool sweep or
// contains a floating-point loop.
func dispatchesOrLoops(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			callee := calleeOf(info, call)
			found = callee != nil && poolSweepNames[callee.Name()] && recvTypeName(callee) == "pool"
		}
		return !found
	})
	return found || hasFloatLoop(info, body)
}

// checkPairs flags a Profiler.Start with no Stop, and a Mark with no
// Charge, in the same declaration.
func checkPairs(pass *Pass, fd *ast.FuncDecl) {
	seen := map[string]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil || !funcFromPkg(callee, "perf") || recvTypeName(callee) != "Profiler" {
			return true
		}
		if _, ok := seen[callee.Name()]; !ok {
			seen[callee.Name()] = call.Pos()
		}
		return true
	})
	for _, p := range [][2]string{{"Start", "Stop"}, {"Mark", "Charge"}} {
		pos, open := seen[p[0]]
		if _, closed := seen[p[1]]; open && !closed {
			pass.Reportf(pos,
				"Profiler.%s without a matching %s in this function: the accounted section never closes and its time is never attributed", p[0], p[1])
		}
	}
}
