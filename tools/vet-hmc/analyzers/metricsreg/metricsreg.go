// Package metricsreg enforces the service's metrics discipline. The
// daemon hand-rolls its Prometheus exposition (internal/service/metrics.go:
// atomic fields on Metrics, rendered by writePrometheus through the
// counter/counterF/gaugeI/gaugeF helpers and histogram.write), which
// means nothing at runtime checks what a registry would: that names are
// unique, conventionally formed, and that an exported series actually has
// a writer somewhere. Dashboards silently flatline when a counter field
// is exported but its .Add call was lost in a refactor — this analyzer
// makes that a CI failure instead.
//
// Checks, in package internal/service:
//
//   - every metric name passed to a register helper or histogram.write is
//     a literal matching ^hmcd_[a-z][a-z0-9_]*$ — one namespace, greppable;
//   - counter/counterF names end in _total; gauge and histogram names do
//     not (histograms get _bucket/_sum/_count suffixes appended);
//   - no name is registered twice (copy-paste duplicates shadow each
//     other in Prometheus scrapes);
//   - every Metrics field of type atomic.Int64 or histogram is both
//     exported by writePrometheus and incremented (.Add/.Store/.observe)
//     somewhere in the package — no write-only and no export-only
//     metrics.
//
// Names emitted through raw Fprintf are outside the helper discipline and
// outside this analyzer's scope. The only such family is the labeled
// hmcd_backend_latency_seconds histogram (writeBackendLatencies), whose
// HELP/TYPE header is written by hand.
package metricsreg

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"hmc/tools/vet-hmc/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "metricsreg",
	Doc: "hmcd metrics: literal hmcd_* names, _total on counters only, " +
		"exactly-once registration, and every Metrics field both exported " +
		"and incremented",
	Match: analysis.HasSuffix("internal/service"),
	Run:   run,
}

var nameRE = regexp.MustCompile(`^hmcd_[a-z][a-z0-9_]*$`)

// helperKind classifies the writePrometheus registration helpers.
var helperKind = map[string]string{
	"counter": "counter", "counterF": "counter",
	"gaugeI": "gauge", "gaugeF": "gauge",
}

func run(pass *analysis.Pass) error {
	metrics := lookupStruct(pass.Pkg, "Metrics")
	if metrics == nil {
		return nil // not the package shape this invariant lives in
	}

	// The Metrics fields under the discipline: atomic counters/gauges and
	// hand-rolled histograms.
	tracked := map[string]token.Pos{}
	for i := 0; i < metrics.NumFields(); i++ {
		f := metrics.Field(i)
		if analysis.IsNamed(f.Type(), "sync/atomic", "Int64") || isLocalHistogram(pass, f.Type()) {
			tracked[f.Name()] = f.Pos()
		}
	}

	registered := map[string]token.Pos{} // metric name -> first registration
	exported := map[string]bool{}        // Metrics field -> referenced by a registration
	incremented := map[string]bool{}     // Metrics field -> has .Add/.Store/.observe
	fieldOf := map[string][]string{}     // metric name -> referenced fields

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// Taking a field's address hands the counter to another
			// component (the LRU cache increments CacheEvictions through
			// such a pointer); assume the alias is written.
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
				if f := receiverField(pass, metrics, u.X); f != "" {
					incremented[f] = true
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if kind, ok := helperKind[fun.Name]; ok && len(call.Args) > 0 {
					name := checkName(pass, call.Args[0], kind)
					recordRegistration(pass, registered, name, call.Args[0].Pos())
					for _, fname := range metricsFields(pass, metrics, call.Args) {
						exported[fname] = true
						if name != "" {
							fieldOf[name] = append(fieldOf[name], fname)
						}
					}
				}
			case *ast.SelectorExpr:
				recv := receiverField(pass, metrics, fun.X)
				switch fun.Sel.Name {
				case "Add", "Store", "observe":
					if recv != "" {
						incremented[recv] = true
					}
				case "write":
					if recv != "" && isLocalHistogram(pass, typeOf(pass, fun.X)) && len(call.Args) >= 2 {
						name := checkName(pass, call.Args[1], "histogram")
						recordRegistration(pass, registered, name, call.Args[1].Pos())
						exported[recv] = true
						if name != "" {
							fieldOf[name] = append(fieldOf[name], recv)
						}
					}
				}
			}
			return true
		})
	}

	for name, fields := range fieldOf {
		for _, f := range fields {
			if !incremented[f] {
				pass.Reportf(registered[name],
					"metric %s is exported from Metrics.%s, which is never incremented (.Add/.Store/.observe) in the package — a dashboard flatline, not a metric", name, f)
			}
		}
	}
	for fname, pos := range tracked {
		if !exported[fname] {
			what := "never exported by writePrometheus"
			if !incremented[fname] {
				what = "neither incremented nor exported — dead metric field"
			}
			pass.Reportf(pos, "Metrics.%s is %s", fname, what)
		}
	}
	return nil
}

// checkName validates one metric-name argument and returns the literal
// name ("" when unusable).
func checkName(pass *analysis.Pass, arg ast.Expr, kind string) string {
	lit, ok := ast.Unparen(arg).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		pass.Reportf(arg.Pos(), "metric name must be a string literal so the registration set is statically known")
		return ""
	}
	name := strings.Trim(lit.Value, "`\"")
	if !nameRE.MatchString(name) {
		pass.Reportf(arg.Pos(), "metric name %q does not match ^hmcd_[a-z][a-z0-9_]*$ — one namespace, lowercase, underscores", name)
		return name
	}
	total := strings.HasSuffix(name, "_total")
	if kind == "counter" && !total {
		pass.Reportf(arg.Pos(), "counter %q must end in _total (Prometheus counter convention)", name)
	}
	if kind != "counter" && total {
		pass.Reportf(arg.Pos(), "%s %q must not end in _total — that suffix is reserved for counters", kind, name)
	}
	return name
}

func recordRegistration(pass *analysis.Pass, registered map[string]token.Pos, name string, pos token.Pos) {
	if name == "" {
		return
	}
	if _, dup := registered[name]; dup {
		pass.Reportf(pos, "metric %s is registered more than once — duplicate series shadow each other in scrapes", name)
		return
	}
	registered[name] = pos
}

// metricsFields collects the names of Metrics fields referenced anywhere
// in the argument expressions (m.X.Load(), time.Duration(m.Y.Load())...).
func metricsFields(pass *analysis.Pass, metrics *types.Struct, args []ast.Expr) []string {
	var out []string
	for _, a := range args {
		ast.Inspect(a, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if f := receiverField(pass, metrics, sel); f != "" {
					out = append(out, f)
				}
			}
			return true
		})
	}
	return out
}

// receiverField returns the field name when expr is a selector m.X with m
// of type Metrics and X one of its fields.
func receiverField(pass *analysis.Pass, metrics *types.Struct, expr ast.Expr) string {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := typeOf(pass, sel.X)
	if recv == nil {
		return ""
	}
	n := analysis.NamedType(recv)
	if n == nil || n.Obj().Name() != "Metrics" || n.Obj().Pkg() == nil || n.Obj().Pkg() != pass.Pkg {
		return ""
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok || st != metrics {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == sel.Sel.Name {
			return sel.Sel.Name
		}
	}
	return ""
}

func typeOf(pass *analysis.Pass, expr ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// isLocalHistogram reports whether t is the package's own histogram type.
func isLocalHistogram(pass *analysis.Pass, t types.Type) bool {
	if t == nil {
		return false
	}
	n := analysis.NamedType(t)
	return n != nil && n.Obj().Name() == "histogram" && n.Obj().Pkg() == pass.Pkg
}

func lookupStruct(pkg *types.Package, name string) *types.Struct {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	st, _ := obj.Type().Underlying().(*types.Struct)
	return st
}
