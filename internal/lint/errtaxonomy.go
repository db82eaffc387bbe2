package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrTaxonomy guards the oracle error taxonomy (oracle.Classify and
// its Transient/Permanent markers) across the pipeline and its
// callers:
//
//   - fmt.Errorf must wrap error operands with %w, never flatten them
//     with %v/%s — flattening severs the Unwrap chain, so Classify,
//     errors.Is(ErrOracleUnavailable), and the HTTP status mapping all
//     stop seeing the original class.
//   - inside internal/oracle, the Label/LabelBatch/LabelAll boundary
//     must not mint unclassified errors: a bare errors.New or a
//     fmt.Errorf without %w defaults to ClassTransient and gets
//     retried, even when retrying is provably useless.
//   - errors must not be routed by message text (err.Error()
//     substring or equality checks): messages are not API.
var ErrTaxonomy = &Analyzer{
	Name:       "errtaxonomy",
	Doc:        "enforce Transient/Permanent classification and %w wrapping across the oracle pipeline boundary",
	Annotation: "errtaxonomy",
	Packages: []string{
		"internal/oracle",
		"internal/core",
		"internal/engine",
		"internal/server",
		"internal/jobs",
		"internal/labelstore",
		"internal/framelog",
	},
	Run: runErrTaxonomy,
}

// labelBoundary names the oracle-pipeline entry points whose returned
// errors feed oracle.Classify.
var labelBoundary = map[string]bool{"Label": true, "LabelBatch": true, "LabelAll": true}

func runErrTaxonomy(pass *Pass) {
	inOracle := strings.HasSuffix(strings.TrimSuffix(pass.Package.Path, "_test"), "internal/oracle")
	pass.InspectFiles(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
				checkMessageRouting(pass, n)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					if isErrErrorCall(pass, n.X) || isErrErrorCall(pass, n.Y) {
						pass.Report(n.Pos(),
							"error routed by comparing err.Error() text; messages are not API and bypass the taxonomy",
							"define a sentinel (errors.New) or typed error and match with errors.Is / errors.As")
					}
				}
			case *ast.FuncDecl:
				if inOracle && n.Body != nil && labelBoundary[n.Name.Name] {
					checkBoundaryReturns(pass, n)
				}
			}
			return true
		})
	})
}

// checkErrorfWrap flags fmt.Errorf operands of type error formatted
// with a verb other than %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if !pass.CalleeIsPkgFunc(call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	format, ok := constStringArg(pass, call.Args[0])
	if !ok {
		return
	}
	for _, v := range parseVerbs(format) {
		argIdx := 1 + v.arg
		if v.verb == 'w' || argIdx >= len(call.Args) {
			continue
		}
		arg := call.Args[argIdx]
		if implementsError(pass.TypeOf(arg)) {
			pass.Report(arg.Pos(),
				"error operand formatted with %"+string(v.verb)+" severs the unwrap chain oracle.Classify walks",
				"use %w so the Transient/Permanent class and sentinels survive wrapping")
		}
	}
}

// checkMessageRouting flags strings.* predicates applied to
// err.Error() output.
func checkMessageRouting(pass *Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" {
		return
	}
	switch fn.Name() {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold":
	default:
		return
	}
	for _, arg := range call.Args {
		if isErrErrorCall(pass, arg) {
			pass.Report(call.Pos(),
				"error routed by err.Error() message text; messages are not API and bypass the taxonomy",
				"define a sentinel (errors.New) or typed error and match with errors.Is / errors.As")
			return
		}
	}
}

// checkBoundaryReturns flags newly minted unclassified errors returned
// from a Label pipeline boundary function. Nested function literals
// are skipped: only the boundary function's own returns are judged.
func checkBoundaryReturns(pass *Pass, fn *ast.FuncDecl) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				checkBoundaryResult(pass, res)
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

func checkBoundaryResult(pass *Pass, res ast.Expr) {
	call, ok := ast.Unparen(res).(*ast.CallExpr)
	if !ok {
		return
	}
	if pass.CalleeIsPkgFunc(call, "errors", "New") {
		pass.Report(res.Pos(),
			"unclassified errors.New at the Label boundary: Classify defaults it to transient and retries it",
			"wrap with oracle.Permanent / oracle.Transient, or chain a classified sentinel with %w")
		return
	}
	if pass.CalleeIsPkgFunc(call, "fmt", "Errorf") && len(call.Args) > 0 {
		if format, ok := constStringArg(pass, call.Args[0]); ok && !formatWraps(format) {
			pass.Report(res.Pos(),
				"unclassified fmt.Errorf at the Label boundary: no %w chain for Classify to walk, so it defaults to transient",
				"wrap with oracle.Permanent / oracle.Transient, or chain a classified sentinel with %w")
		}
	}
}

func formatWraps(format string) bool {
	for _, v := range parseVerbs(format) {
		if v.verb == 'w' {
			return true
		}
	}
	return false
}

// isErrErrorCall reports whether e is a zero-argument .Error() call on
// a value of (an implementation of) the error interface.
func isErrErrorCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	return implementsError(pass.TypeOf(sel.X))
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// constStringArg resolves e to a compile-time string constant.
func constStringArg(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Package.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// verb is one conversion in a format string: the zero-based operand
// index it consumes and its verb character.
type verb struct {
	arg  int
	verb byte
}

// parseVerbs scans a fmt format string, tracking '*' width/precision
// operands and explicit [n] argument indexes.
func parseVerbs(format string) []verb {
	var out []verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// flags
		for i < len(format) && strings.IndexByte("+-# 0", format[i]) >= 0 {
			i++
		}
		// explicit argument index [n]
		if i < len(format) && format[i] == '[' {
			j := strings.IndexByte(format[i:], ']')
			if j < 0 {
				break
			}
			if n, err := strconv.Atoi(format[i+1 : i+j]); err == nil {
				arg = n - 1
			}
			i += j + 1
		}
		// width
		if i < len(format) && format[i] == '*' {
			arg++
			i++
		}
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			i++
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			if i < len(format) && format[i] == '*' {
				arg++
				i++
			}
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		if i >= len(format) {
			break
		}
		out = append(out, verb{arg: arg, verb: format[i]})
		arg++
	}
	return out
}
