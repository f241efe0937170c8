// Package optsig pins the checkpoint compatibility contract of
// internal/core: a checkpoint taken under one Options value must refuse
// to resume under a semantically different one (ErrCheckpointMismatch),
// which optsSignature implements by rendering every semantics-affecting
// field into the Checkpoint.Opts string. The drift class this catches is
// "a new Options field changes what is explored but the signature was
// not extended" — the checkpoint then resumes happily and the merged
// counters silently diverge, defeating the exactly-once resume
// guarantee.
//
// The rule: every field of core.Options must be accounted for in exactly
// one of three ways —
//
//   - rendered by optsSignature (read through the Options parameter);
//   - marked //hmc:transient(reason) in its doc comment: the field may
//     legitimately differ between the checkpointing and resuming runs
//     (Workers, MemoryBudget, callbacks, observation knobs);
//   - marked //hmc:identity(Field) in its doc comment: the field is
//     checked through a dedicated Checkpoint field instead (Model),
//     which this analyzer verifies exists.
//
// A field with none of the three is a compile-time ErrCheckpointMismatch
// bug waiting to happen and is reported.
package optsig

import (
	"go/ast"
	"regexp"
	"strings"

	"hmc/tools/vet-hmc/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "optsig",
	Doc: "every core.Options field must be covered by optsSignature, marked " +
		"//hmc:transient(reason), or marked //hmc:identity(CheckpointField)",
	Match: analysis.HasSuffix("internal/core"),
	Run:   run,
}

var markRE = regexp.MustCompile(`//\s*hmc:(transient|identity)\(([^)]*)\)`)

func run(pass *analysis.Pass) error {
	options := findStruct(pass.Files, "Options")
	if options == nil {
		return nil // not the package shape this invariant lives in
	}
	sig := findFunc(pass.Files, "optsSignature")
	checkpoint := findStruct(pass.Files, "Checkpoint")

	rendered := map[string]bool{}
	if sig == nil {
		pass.Reportf(options.Pos(), "package defines Options but no optsSignature function: checkpoints cannot detect semantic drift")
	} else {
		// Every selector on the Options-typed parameter counts as rendered.
		ast.Inspect(sig.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				rendered[sel.Sel.Name] = true
			}
			return true
		})
	}

	for _, field := range options.Fields.List {
		kind, arg, ok := marker(field)
		for _, name := range fieldNames(field) {
			switch {
			case rendered[name]:
				if ok {
					pass.Reportf(field.Pos(), "Options.%s is rendered by optsSignature but also marked hmc:%s — pick one", name, kind)
				}
			case ok && kind == "transient":
				if arg == "" {
					pass.Reportf(field.Pos(), "Options.%s: hmc:transient annotation needs a non-empty reason", name)
				}
			case ok && kind == "identity":
				if checkpoint == nil || !hasField(checkpoint, arg) {
					pass.Reportf(field.Pos(), "Options.%s is marked hmc:identity(%s) but Checkpoint has no field %q", name, arg, arg)
				}
			default:
				pass.Reportf(field.Pos(),
					"Options.%s is not covered by the checkpoint options signature: render it in optsSignature, or mark it //hmc:transient(reason) / //hmc:identity(CheckpointField) in its doc comment", name)
			}
		}
	}
	return nil
}

// marker extracts the hmc:transient/hmc:identity marker from a field's
// doc or trailing comment.
func marker(field *ast.Field) (kind, arg string, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := markRE.FindStringSubmatch(c.Text); m != nil {
				return m[1], strings.TrimSpace(m[2]), true
			}
		}
	}
	return "", "", false
}

func fieldNames(field *ast.Field) []string {
	var out []string
	for _, n := range field.Names {
		out = append(out, n.Name)
	}
	return out
}

func findStruct(files []*ast.File, name string) *ast.StructType {
	for _, f := range files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

func findFunc(files []*ast.File, name string) *ast.FuncDecl {
	var found *ast.FuncDecl
	analysis.Funcs(files, func(fn *ast.FuncDecl) {
		if fn.Recv == nil && fn.Name.Name == name {
			found = fn
		}
	})
	return found
}

func hasField(st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return true
			}
		}
	}
	return false
}
