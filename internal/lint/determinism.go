package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// resultPathPackages are the packages whose outputs must be a pure
// function of (data, seed): every byte-identical-results guarantee —
// segmented vs monolithic, parallel vs sequential, warm vs cold,
// retried vs fault-free — is proved by tests that assume it.
var resultPathPackages = []string{
	"internal/core",
	"internal/index",
	"internal/parallel",
	"internal/sampling",
	"internal/dist",
	"internal/multiproxy",
	"internal/stats",
}

// Determinism flags nondeterminism sources in result-path packages:
// wall-clock reads, the global math/rand stream, map iteration, and
// goroutine-order-dependent channel fan-in. Sites where ordering
// provably does not reach the result carry a
// //supg:nondeterminism-ok <reason> annotation.
var Determinism = &Analyzer{
	Name:       "determinism",
	Doc:        "flag wall-clock, global rand, map iteration, and channel-order dependence in result-path packages",
	Annotation: "nondeterminism",
	Packages:   resultPathPackages,
	Run:        runDeterminism,
}

// rngConstructors are the math/rand functions that build an explicitly
// seeded generator rather than touching the global stream.
var rngConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	pass.InspectFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n)
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Report(n.Pos(),
						"map iteration order is randomized per run; it must not reach a result or an on-disk byte",
						"iterate a sorted key slice (sort + index), or annotate with //supg:nondeterminism-ok <reason> if order provably cannot escape")
				case *types.Chan:
					pass.Report(n.Pos(),
						"range over a channel yields values in goroutine completion order",
						"collect results into an index-addressed slice and iterate by position")
				}
			case *ast.SelectStmt:
				recvs := 0
				for _, c := range n.Body.List {
					cc := c.(*ast.CommClause)
					if isRecvComm(cc.Comm) {
						recvs++
					}
				}
				if recvs >= 2 {
					pass.Report(n.Pos(),
						"select over multiple ready receives picks a case pseudo-randomly; fan-in order is not deterministic",
						"drain channels in a fixed order, or merge by index after all sends complete")
				}
			}
			return true
		})
	})
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Report(call.Pos(),
				fmt.Sprintf("time.%s in result-path code: results must be a pure function of (data, seed)", fn.Name()),
				"inject a clock (see oracle.Clock) or move the timing out of the result path")
		}
	case "math/rand", "math/rand/v2":
		if !rngConstructors[fn.Name()] {
			pass.Report(call.Pos(),
				fmt.Sprintf("global %s.%s bypasses the seeded per-query random stream", fn.Pkg().Name(), fn.Name()),
				"derive a generator from the query's seeded stream (internal/randx) and thread it explicitly")
		}
	}
}

func isRecvComm(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op.String() == "<-"
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			u, ok := s.Rhs[0].(*ast.UnaryExpr)
			return ok && u.Op.String() == "<-"
		}
	}
	return false
}
