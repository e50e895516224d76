package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// Metricnames checks every metric and span name literal against the
// registry's dotted grammar. The Prometheus exporter parses names
// structurally — "mpi.rank3.bytes_sent" and "farm.worker.7.tasks" fold
// their rank segment into a label, dots become underscores, and the
// first segment becomes the subsystem — so a name that deviates from
//
//	segment ( "." segment )+        segment = [a-z][a-z0-9_]* or a rank number
//
// either breaks rank folding (per-worker series explode into distinct
// metrics) or produces an invalid Prometheus exposition line. The rule
// checks the string literals reaching Registry.Counter / Gauge /
// Histogram / Observe, the span constructors and the event emitter
// (Emit); names assembled by
// concatenation are checked piecewise (each literal fragment must be
// made of valid segment characters), and fmt.Sprintf formats may use
// %d/%s as a whole dynamic segment.
var Metricnames = &Analyzer{
	Name:  "metricnames",
	Doc:   "metric/span name literals must follow the pkg.noun.verb grammar",
	Match: func(string) bool { return true },
	Run:   runMetricnames,
}

// metricNameMethods maps each telemetry entry point that takes a
// metric, span or event name to the argument index the name occupies.
// Event names share the metric grammar on purpose: the /debug/events
// prefix filter and the exporter's subsystem folding both parse the
// same dotted shape.
var metricNameMethods = map[string]int{
	"Counter":     0,
	"Gauge":       0,
	"Histogram":   0,
	"Observe":     0,
	"StartSpan":   0,
	"StartTrace":  0,
	"StartChild":  0,
	"StartSpanIn": 1,
	"Emit":        1,
}

const telemetryPkgSuffix = "internal/telemetry"

var (
	// A complete name: at least two dotted segments.
	metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)
	// A fragment of a concatenated name: valid segment characters and
	// dots only, and no empty segment except at the cut points.
	metricFragRE = regexp.MustCompile(`^\.?[a-z0-9_]+(\.[a-z0-9_]+)*\.?$`)
	// Sprintf verbs allowed in name formats; each stands in for one
	// rank number or segment ("mpi.rank%d.bytes_sent").
	metricVerbRE = regexp.MustCompile(`%[ds]`)
)

// metricFormatOK validates a Sprintf format by substituting a rank
// digit for each verb and checking the resulting name.
func metricFormatOK(format string) bool {
	return metricNameRE.MatchString(metricVerbRE.ReplaceAllString(format, "7"))
}

func runMetricnames(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Package, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ix, isNamed := metricNameMethods[sel.Sel.Name]
			if !isNamed || len(call.Args) <= ix {
				return true
			}
			if !telemetryReceiver(pass.Info, sel) {
				return true
			}
			checkMetricNameExpr(pass, call.Args[ix])
			return true
		})
	}
}

// telemetryReceiver reports whether sel selects a method on the
// telemetry Registry or Span types.
func telemetryReceiver(info *types.Info, sel *ast.SelectorExpr) bool {
	t := exprType(info, sel.X)
	if t == nil {
		return false
	}
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(n.Obj().Pkg().Path(), telemetryPkgSuffix) {
		return false
	}
	return n.Obj().Name() == "Registry" || n.Obj().Name() == "Span"
}

// checkMetricNameExpr validates the expression supplying a name.
func checkMetricNameExpr(pass *Pass, arg ast.Expr) {
	switch e := arg.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return
		}
		s, err := strconv.Unquote(e.Value)
		if err != nil {
			return
		}
		if !metricNameRE.MatchString(s) {
			pass.Reportf(e.Pos(),
				"metric/span name %q does not match the dotted grammar [a-z0-9_] segments, ≥2 segments (rank folding depends on it)", s)
		}
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return
		}
		checkMetricFragments(pass, e)
	case *ast.CallExpr:
		// fmt.Sprintf("farm.worker.%d.tasks", rank): validate the format
		// literal with the verbs standing in for one segment each.
		if name, ok := pkgFuncCall(pass.Info, e, "fmt", "Sprintf"); ok && len(e.Args) > 0 {
			_ = name
			if lit, ok := e.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					return
				}
				if !metricFormatOK(s) {
					pass.Reportf(lit.Pos(),
						"metric/span name format %q does not match the dotted grammar (%%d/%%s stand in for one rank or segment)", s)
				}
			}
		}
	}
}

// checkMetricFragments walks a + concatenation and validates every
// string literal fragment.
func checkMetricFragments(pass *Pass, e ast.Expr) {
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			checkMetricFragments(pass, x.X)
			checkMetricFragments(pass, x.Y)
		}
	case *ast.BasicLit:
		if x.Kind != token.STRING {
			return
		}
		s, err := strconv.Unquote(x.Value)
		if err != nil || s == "" {
			return
		}
		if !metricFragRE.MatchString(s) {
			pass.Reportf(x.Pos(),
				"metric/span name fragment %q has characters outside the dotted grammar", s)
		}
	}
}
